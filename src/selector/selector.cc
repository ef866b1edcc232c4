#include "selector/selector.h"

#ifdef __linux__
#include <sched.h>
#endif

#include <algorithm>
#include <atomic>
#include <barrier>
#include <limits>
#include <system_error>
#include <thread>
#include <vector>

#include "common/check.h"

namespace unicc {

namespace {

using StlFn = double (*)(const StlEvaluator&, TxnShape, const ProtocolParams&);
// Indexed by Protocol.
constexpr std::array<StlFn, kNumProtocols> kStlFns = {Stl2pl, StlTo, StlPa};

// One helper per protocol besides the caller's, and no more workers than
// CPUs the process may run on: on one CPU the caller prices all three.
int HelperCount() {
  int cpus = static_cast<int>(std::thread::hardware_concurrency());
#ifdef __linux__
  cpu_set_t set{};
  if (sched_getaffinity(0, sizeof(set), &set) == 0) cpus = CPU_COUNT(&set);
#endif
  return std::clamp(cpus - 1, 0, kNumProtocols - 1);
}

}  // namespace

// The helper threads, the start barrier that opens every pricing and the
// count of helpers still pricing, which closes it. All cross-thread
// interaction goes through these two.
struct MinStlSelector::Helpers {
  explicit Helpers(int num_workers)
      : workers(num_workers), start(num_workers) {}
  int workers;  // helpers running + the calling thread
  std::barrier<> start;
  std::atomic<int> busy{0};
  bool quit = false;  // written before a start barrier only
  std::vector<std::thread> threads;
};

MinStlSelector::MinStlSelector(const Simulator* sim,
                               const ParamEstimator* estimator,
                               std::size_t num_queues,
                               SelectorOptions options)
    : sim_(sim),
      estimator_(estimator),
      num_queues_(num_queues),
      options_(options) {
  UNICC_CHECK(sim_ != nullptr && estimator_ != nullptr);
}

MinStlSelector::~MinStlSelector() {
  if (!helpers_) return;
  helpers_->quit = true;
  helpers_->start.arrive_and_wait();
  for (std::thread& t : helpers_->threads) t.join();
}

int MinStlSelector::helper_threads() const {
  return helpers_ ? helpers_->workers - 1 : 0;
}

std::uint64_t MinStlSelector::ClassKey(TxnShape shape) {
  return (static_cast<std::uint64_t>(shape.m) << 16) |
         static_cast<std::uint64_t>(shape.n);
}

MinStlSelector::ClassStl MinStlSelector::EstimateFor(TxnShape shape) {
  const ParamEstimator copy = *estimator_;
  return Price(copy, shape);
}

MinStlSelector::ClassStl MinStlSelector::Price(const ParamEstimator& est,
                                               TxnShape shape) {
  sys_ = est.Snapshot(sim_->Now(), num_queues_);
  shape_ = shape;
  for (int p = 0; p < kNumProtocols; ++p) {
    params_[static_cast<std::size_t>(p)] = est.For(static_cast<Protocol>(p));
  }
  if (!helpers_) StartHelpers();
  helpers_->busy.store(helpers_->workers - 1, std::memory_order_relaxed);
  helpers_->start.arrive_and_wait();
  RunTasks(0);
  WaitForHelpers();
  return {stl_[0], stl_[1], stl_[2]};
}

void MinStlSelector::WaitForHelpers() {
  // Spin first: the helpers finish within about one estimate's time, and
  // a caller that blocks here idles its CPU thousands of times a second,
  // which slowed the single-threaded code run after it (docs/performance.md,
  // "Parallel refresh"). Block only if a helper is much later, as when
  // more threads than CPUs are running.
  constexpr int kSpinLimit = 1 << 14;
  std::atomic<int>& busy = helpers_->busy;
  for (int spins = 0;; ++spins) {
    const int left = busy.load(std::memory_order_acquire);
    if (left == 0) return;
    if (spins < kSpinLimit) {
#if defined(__x86_64__) || defined(__i386__)
      __builtin_ia32_pause();
#endif
    } else {
      busy.wait(left, std::memory_order_acquire);
    }
  }
}

void MinStlSelector::StartHelpers() {
  const int wanted = HelperCount();
  helpers_ = std::make_unique<Helpers>(wanted + 1);
  for (int w = 1; w <= wanted; ++w) {
    try {
      helpers_->threads.emplace_back([this, w] { HelperLoop(w); });
    } catch (const std::system_error&) {
      break;
    }
  }
  // A helper the system refused to start leaves the start barrier for
  // good; its protocols go to the workers that did start.
  const int started = static_cast<int>(helpers_->threads.size());
  for (int w = started; w < wanted; ++w) helpers_->start.arrive_and_drop();
  helpers_->workers = started + 1;
}

void MinStlSelector::RunTasks(int worker) {
  const StlEvaluator ev(sys_, options_.grid_points);
  for (int p = worker; p < kNumProtocols; p += helpers_->workers) {
    const auto i = static_cast<std::size_t>(p);
    stl_[i] = kStlFns[i](ev, shape_, params_[i]);
  }
}

void MinStlSelector::HelperLoop(int worker) {
  for (;;) {
    helpers_->start.arrive_and_wait();
    if (helpers_->quit) return;
    RunTasks(worker);
    if (helpers_->busy.fetch_sub(1, std::memory_order_release) == 1) {
      helpers_->busy.notify_one();
    }
  }
}

Protocol MinStlSelector::Choose(const TxnSpec& spec) {
  const std::uint64_t i = decided_++;
  Protocol chosen;
  if (i < options_.warmup_txns) {
    chosen = static_cast<Protocol>(i % kNumProtocols);
  } else {
    const TxnShape shape{static_cast<int>(spec.read_set.size()),
                         static_cast<int>(spec.write_set.size())};
    const std::uint64_t key = ClassKey(shape);
    auto it = cache_.find(key);
    if (it == cache_.end() ||
        i - it->second.second >= options_.refresh_every) {
      const ClassStl stl = Price(*estimator_, shape);
      Protocol best = Protocol::kTwoPhaseLocking;
      double best_v = stl.stl_2pl;
      if (stl.stl_to < best_v) {
        best = Protocol::kTimestampOrdering;
        best_v = stl.stl_to;
      }
      if (stl.stl_pa < best_v) {
        best = Protocol::kPrecedenceAgreement;
      }
      cache_[key] = {best, i};
      it = cache_.find(key);
    }
    chosen = it->second.first;
  }
  ++selections_[static_cast<std::size_t>(chosen)];
  return chosen;
}

ProtocolPolicy MinStlSelector::AsPolicy() {
  return [this](const TxnSpec& spec) { return Choose(spec); };
}

MinAvgTimeSelector::MinAvgTimeSelector(std::uint64_t warmup_txns)
    : warmup_txns_(warmup_txns) {}

void MinAvgTimeSelector::OnCommit(const TxnResult& r) {
  const auto i = static_cast<std::size_t>(r.protocol);
  sum_ms_[i] += static_cast<double>(r.SystemTime()) / kMillisecond;
  ++count_[i];
}

Protocol MinAvgTimeSelector::Choose(const TxnSpec& spec) {
  (void)spec;
  const std::uint64_t i = decided_++;
  Protocol chosen;
  if (i < warmup_txns_) {
    chosen = static_cast<Protocol>(i % kNumProtocols);
  } else {
    chosen = Protocol::kTwoPhaseLocking;
    double best = std::numeric_limits<double>::infinity();
    for (int p = 0; p < kNumProtocols; ++p) {
      if (count_[p] == 0) continue;
      const double mean = sum_ms_[p] / static_cast<double>(count_[p]);
      if (mean < best) {
        best = mean;
        chosen = static_cast<Protocol>(p);
      }
    }
  }
  ++selections_[static_cast<std::size_t>(chosen)];
  return chosen;
}

ProtocolPolicy MinAvgTimeSelector::AsPolicy() {
  return [this](const TxnSpec& spec) { return Choose(spec); };
}

}  // namespace unicc

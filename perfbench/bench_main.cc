// unicc_bench: the benchmark program (normally started by perfbench/run.py).
//
//   unicc_bench --workload NAME --seed N --seconds S --trace 0|1
//               [--smoke] [--commit ID]
//   unicc_bench --self-test
//
// --trace 0 repeats the end-to-end run (runner::RunSession) for S seconds
// and prints the end-to-end metrics; --trace 1 alternates the traced,
// layer-by-layer run with the end-to-end one and prints the per-layer
// metrics plus an attribution table. Every run passes the correctness
// gate and prints its sim_digest; a failed check exits 1. The last line of
// standard output is one JSON object: correct, attempted, failed, metrics.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "scenario/ini.h"
#include "scenario/scenario.h"
#include "traced_run.h"

#ifndef UNICC_BENCH_BUILD_TYPE
#define UNICC_BENCH_BUILD_TYPE ""
#endif

namespace unicc::perfbench {
namespace {

// At least this many set-up samples feed the setup_s median.
constexpr std::size_t kMinSetupSamples = 15;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  bool smoke = false;
  bool self_test = false;
  std::string commit = "unknown";
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

[[noreturn]] void Fail(const std::string& message) {
  std::fprintf(stderr, "unicc_bench: %s\n", message.c_str());
  std::exit(1);
}

void PrintHost(const Args& a) {
#if defined(__clang__)
  const char* compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  const char* compiler = "gcc " __VERSION__;
#else
  const char* compiler = "unknown";
#endif
#ifdef NDEBUG
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
  std::printf(
      "host {\"nproc\": %u, \"compiler\": \"%s\", \"build_type\": \"%s\", "
      "\"ndebug\": %s, \"commit\": \"%s\"}\n",
      std::thread::hardware_concurrency(), compiler, UNICC_BENCH_BUILD_TYPE,
      ndebug ? "true" : "false", a.commit.c_str());
}

// The result line. Non-finite values would not be JSON; they fail the run.
void PrintResult(bool correct, std::uint64_t attempted,
                 std::uint64_t failed, const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (!std::isfinite(m.value)) Fail(m.name + " is not finite");
    std::snprintf(buf, sizeof buf, "%.17g", m.value);
    out += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

void PrintRunLine(const char* kind, const Workload& w,
                  const runner::RunStats& s, std::uint64_t offered) {
  std::printf(
      "run %s workload=%s offered=%llu committed=%llu failed=%llu "
      "shed=%llu expired=%llu retried=%llu sim_digest=%016llx\n",
      kind, w.name.c_str(), static_cast<unsigned long long>(offered),
      static_cast<unsigned long long>(s.committed),
      static_cast<unsigned long long>(FailedTxns(s, offered)),
      static_cast<unsigned long long>(s.shed),
      static_cast<unsigned long long>(s.expired),
      static_cast<unsigned long long>(s.retried),
      static_cast<unsigned long long>(SimDigest(s)));
}

// Identical inputs must give identical results: the digest and the
// modelled S of every repetition match the first.
bool SameResult(const runner::RunStats& a, const runner::RunStats& b) {
  return SimDigest(a) == SimDigest(b) && a.mean_s_ms == b.mean_s_ms &&
         a.p95_s_ms == b.p95_s_ms;
}

// RunRequest::seed of input `i` of a benchmark run with seed `seed`.
std::uint64_t InputSeed(const Workload& w, std::uint64_t seed,
                        std::uint64_t i) {
  return seed * w.inputs + i;
}

// Runs are made in passes over the workload's inputs, for at least
// `seconds` and always whole passes, so the inputs measured depend only on
// the seed. The first pass fixes each input's expected result.
class Passes {
 public:
  Passes(const Args& a, const Workload& w) : a_(a), w_(w) {}

  bool more() const {
    return rep_ == 0 || rep_ % w_.inputs != 0 ||
           NowSeconds() - start_ < a_.seconds;
  }
  std::uint64_t input() const { return rep_ % w_.inputs; }
  std::uint64_t seed() const { return InputSeed(w_, a_.seed, input()); }
  bool first_pass() const { return rep_ < w_.inputs; }
  bool pass_done() const { return (rep_ + 1) % w_.inputs == 0; }

  // Gates one run of the current input and counts its outcome.
  void Record(const char* kind, const runner::RunStats& s,
              std::uint64_t offered) {
    if (Status st = CheckRun(w_, s, offered); !st.ok()) {
      std::fprintf(stderr, "unicc_bench: %s\n", st.ToString().c_str());
      correct_ = false;
    }
    attempted_ += offered;
    failed_ += FailedTxns(s, offered);
    if (first_pass() && expected_.size() == input()) {
      expected_.push_back(s);
      PrintRunLine(kind, w_, s, offered);
    } else if (!SameResult(expected_[input()], s)) {
      std::fprintf(stderr,
                   "unicc_bench: %s run of input %llu gives sim_digest "
                   "%016llx, expected %016llx\n",
                   kind, static_cast<unsigned long long>(input()),
                   static_cast<unsigned long long>(SimDigest(s)),
                   static_cast<unsigned long long>(
                       SimDigest(expected_[input()])));
      correct_ = false;
    }
  }
  void Next() { ++rep_; }

  bool correct() const { return correct_; }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  std::uint64_t reps() const { return rep_; }
  // The inputs' modelled S: the mean over every committed transaction,
  // and the mean over inputs of each run's p95.
  double MeanS() const {
    double sum = 0, n = 0;
    for (const runner::RunStats& s : expected_) {
      sum += s.mean_s_ms * static_cast<double>(s.committed);
      n += static_cast<double>(s.committed);
    }
    return Ratio(sum, n);
  }
  double P95S() const {
    double sum = 0;
    for (const runner::RunStats& s : expected_) sum += s.p95_s_ms;
    return Ratio(sum, static_cast<double>(expected_.size()));
  }
  void PrintDigest() const {
    std::uint64_t h = 1469598103934665603ULL;
    for (const runner::RunStats& s : expected_) {
      h = (h ^ SimDigest(s)) * 1099511628211ULL;
    }
    std::printf("sim_digest %s %016llx over %zu inputs\n", w_.name.c_str(),
                static_cast<unsigned long long>(h), expected_.size());
  }

 private:
  const Args& a_;
  const Workload& w_;
  const double start_ = NowSeconds();
  std::uint64_t rep_ = 0;
  std::vector<runner::RunStats> expected_;
  bool correct_ = true;
  std::uint64_t attempted_ = 0, failed_ = 0;
};

// One setup_s sample: the mean of as many consecutive set-ups (cycling
// through the inputs from `*next`) as fill 5 ms, so that a workload whose
// set-up takes microseconds is still timed above the clock's noise.
double SetupSample(const Args& a, const Workload& w, std::uint64_t txns,
                   std::uint64_t* next) {
  constexpr double kSampleSeconds = 0.005;
  double total = 0;
  int n = 0;
  do {
    auto r = RunUntraced(w, txns, InputSeed(w, a.seed, (*next)++ % w.inputs),
                         /*setup_only=*/true);
    if (!r.ok()) Fail(r.status().ToString());
    total += r->setup_s;
    ++n;
  } while (total < kSampleSeconds);
  return total / n;
}

// txn_per_s is committed transactions over the host time of every
// RunSession::Run in the run. setup_s is the median of set-up samples
// taken between the runs (at least kMinSetupSamples), so both spread over
// the same stretch of host time.
int RunEndToEnd(const Args& a, const Workload& w, std::uint64_t txns) {
  Passes passes(a, w);
  double committed = 0, run_s = 0;
  std::vector<double> setups;
  std::uint64_t next_setup = 0;
  for (; passes.more() && passes.correct(); passes.Next()) {
    auto r = RunUntraced(w, txns, passes.seed());
    if (!r.ok()) Fail(r.status().ToString());
    passes.Record("untraced", r->stats, r->offered);
    committed += static_cast<double>(r->stats.committed);
    run_s += r->run_s;
    setups.push_back(SetupSample(a, w, txns, &next_setup));
  }
  while (setups.size() < kMinSetupSamples) {
    setups.push_back(SetupSample(a, w, txns, &next_setup));
  }
  passes.PrintDigest();
  std::printf("reps %llu setups %zu\n",
              static_cast<unsigned long long>(passes.reps()), setups.size());
  PrintResult(passes.correct(), passes.attempted(), passes.failed(),
              {
                  {"txn_per_s", Ratio(committed, run_s), "1/s"},
                  {"setup_s", Median(setups), "s"},
                  {"peak_rss_mb",
                   static_cast<double>(runner::PeakRssKb()) / 1024.0, "MB"},
                  {"sim_mean_s_ms", passes.MeanS(), "ms"},
                  {"sim_p95_s_ms", passes.P95S(), "ms"},
              });
  return passes.correct() ? 0 : 1;
}

void PrintAttribution(const Workload& w, const TracedRun& t) {
  std::printf("attribution %s: self time as a share of traced wall %.6f s\n",
              w.name.c_str(), t.wall_s);
  double sum = 0;
  for (const LayerTime& l : t.layers) {
    std::printf("  %-24s %10.6f s  %6.2f%%\n", l.name.c_str(), l.self_s,
                100 * Ratio(l.self_s, t.wall_s));
    sum += l.self_s;
  }
  std::printf("  %-24s %10.6f s  %6.2f%%\n", "residual (harness)",
              t.residual_s, 100 * Ratio(t.residual_s, t.wall_s));
  sum += t.residual_s;
  std::printf("  %-24s %10.6f s  (wall %.6f s)\n", "sum", sum, t.wall_s);
}

// Adds `t` into the pass total `sum`.
void Accumulate(TracedRun* sum, const TracedRun& t) {
  sum->wall_s += t.wall_s;
  sum->residual_s += t.residual_s;
  if (sum->layers.empty()) {
    sum->layers = t.layers;
  } else {
    for (std::size_t i = 0; i < t.layers.size(); ++i) {
      sum->layers[i].self_s += t.layers[i].self_s;
    }
  }
  for (const auto& [name, v] : t.sums) sum->sums[name] += v;
}

int RunLayered(const Args& a, const Workload& w, std::uint64_t txns) {
  Passes passes(a, w);
  // Pass totals over the inputs: the traced runs, and the untraced wall.
  std::vector<TracedRun> totals(1);
  std::vector<double> untraced_wall(1, 0.0);
  for (; passes.more() && passes.correct(); passes.Next()) {
    auto t = RunTraced(w, txns, passes.seed());
    if (!t.ok()) Fail(t.status().ToString());
    auto u = RunUntraced(w, txns, passes.seed());
    if (!u.ok()) Fail(u.status().ToString());
    passes.Record("traced", t->stats, t->offered);
    // Traced-run equivalence: the layer-by-layer run is the same program.
    passes.Record("untraced", u->stats, u->offered);
    Accumulate(&totals.back(), *t);
    untraced_wall.back() += u->wall_s;
    if (passes.pass_done()) {
      totals.emplace_back();
      untraced_wall.push_back(0);
    }
  }
  totals.pop_back();
  untraced_wall.pop_back();
  if (totals.empty()) return 1;  // a failed check ended the first pass

  // Times are medians over the passes; counts are the same in every pass.
  auto med = [&totals](const char* name) {
    std::vector<double> v;
    for (const TracedRun& t : totals) v.push_back(t.sums.at(name));
    return Median(v);
  };
  const std::map<std::string, double>& c = totals.front().sums;
  const auto n = [&c](const char* name) { return c.at(name); };
  const double run_s = med("engine.run_s");
  const double check_s = med("serializability.check_s");
  const double replica_s = med("storage.replica_check_s");
  const double selector_s = med("selector.s");
  const double wall_s = med("trace.wall_s");

  // The pass with the median wall time stands for the run in the
  // attribution table, whose rows add up to that pass's wall.
  std::vector<const TracedRun*> by_wall;
  for (const TracedRun& t : totals) by_wall.push_back(&t);
  std::sort(by_wall.begin(), by_wall.end(),
            [](const TracedRun* x, const TracedRun* y) {
              return x->wall_s < y->wall_s;
            });
  PrintAttribution(w, *by_wall[by_wall.size() / 2]);
  passes.PrintDigest();
  std::printf("passes %zu\n", totals.size());

  std::vector<Metric> metrics;
  for (const char* name :
       {"scenario.parse_s", "workload.build_s", "workload.stream_s",
        "engine.build_s", "engine.admit_s", "engine.run_s", "engine.other_s",
        "engine.teardown_s", "serializability.check_s",
        "storage.replica_check_s", "selector.s", "stl.estimator_s",
        "trace.wall_s", "trace.residual_s"}) {
    metrics.push_back({name, med(name), "s"});
  }
  for (const char* name :
       {"engine.events", "storage.log_records", "selector.calls",
        "selector.pick_2pl", "selector.pick_to", "selector.pick_pa",
        "stl.estimator_calls", "cc.grants", "cc.rejects", "cc.backoff_rounds",
        "cc.reject_restarts", "deadlock.victims", "engine.shed",
        "engine.expired", "engine.retried"}) {
    metrics.push_back({name, n(name), "count"});
  }
  const double committed = n("engine.committed");
  metrics.insert(
      metrics.end(),
      {
          {"engine.ns_per_event", 1e9 * Ratio(run_s, n("engine.events")),
           "ns"},
          {"serializability.us_per_record",
           1e6 * Ratio(check_s, n("storage.log_records")), "us"},
          {"selector.us_per_call",
           1e6 * Ratio(selector_s, n("selector.calls")), "us"},
          {"net.msgs_per_txn", Ratio(n("net.remote_msgs"), committed),
           "msgs/txn"},
          {"net.cc_msgs_per_txn", Ratio(n("net.cc_msgs"), committed),
           "msgs/txn"},
          {"cc.commit_ratio", Ratio(committed, n("cc.attempts")), "ratio"},
          {"engine.goodput_ratio",
           Ratio(n("engine.goodput"), n("engine.offered")), "ratio"},
          {"runner.verify_s", check_s + replica_s, "s"},
          {"trace.overhead", Ratio(wall_s, Median(untraced_wall)), "ratio"},
      });
  PrintResult(passes.correct(), passes.attempted(), passes.failed(),
              metrics);
  return passes.correct() ? 0 : 1;
}

// The run a scenario text with `[engine] seed` written into it gives,
// through RunSession with no RunRequest override.
StatusOr<runner::RunStats> RunWithSeedInText(const Workload& w,
                                             std::uint64_t txns,
                                             std::uint64_t seed) {
  auto ini = IniFile::Parse(w.text(txns));
  if (!ini.ok()) return ini.status();
  IniFile edited = *ini;
  edited.Set("engine", "seed", std::to_string(seed));
  auto spec = ScenarioSpec::FromIni(edited);
  if (!spec.ok()) return spec.status();
  runner::RunRequest request;
  request.spec = &*spec;
  auto session = runner::RunSession::Create(std::move(request));
  if (!session.ok()) return session.status();
  runner::RunSession& run = *session.value();
  return run.Run().stats;
}

// Small-size checks of the benchmark itself (run.py --self-test adds the
// metric-emission checks against BENCHMARK.json).
int SelfTest() {
  constexpr std::uint64_t kSeedA = 11, kSeedB = 12;
  bool ok = true;
  auto expect = [&ok](bool cond, const std::string& what) {
    if (!cond) {
      std::fprintf(stderr, "self-test: FAILED: %s\n", what.c_str());
      ok = false;
    }
  };
  for (const Workload& w : Workloads()) {
    const std::uint64_t n = w.smoke_txns;
    auto t = RunTraced(w, n, kSeedA);
    auto u = RunUntraced(w, n, kSeedA);
    auto b = RunUntraced(w, n, kSeedB);
    auto in_text = RunWithSeedInText(w, n, kSeedA);
    if (!t.ok() || !u.ok() || !b.ok() || !in_text.ok()) {
      expect(false, w.name + ": a run failed to start");
      continue;
    }
    expect(CheckRun(w, t->stats, t->offered).ok() &&
               CheckRun(w, u->stats, u->offered).ok(),
           w.name + ": correctness gate");
    expect(SameResult(t->stats, u->stats),
           w.name + ": traced run reproduces the untraced sim_digest");
    // The seed reaches the run through RunRequest::seed and nothing else:
    // overriding it there equals writing it into the scenario, and it
    // changes the generated inputs.
    expect(SameResult(u->stats, *in_text),
           w.name + ": RunRequest::seed equals [engine] seed in the text");
    expect(u->stats.mean_s_ms != b->stats.mean_s_ms,
           w.name + ": another seed gives another run");
    double sum = t->residual_s;
    for (const LayerTime& l : t->layers) sum += l.self_s;
    expect(std::fabs(sum - t->wall_s) <= 1e-9 * std::max(1.0, t->wall_s),
           w.name + ": layer self times plus residual equal traced wall");
    std::printf("self-test %s: sim_digest %016llx\n", w.name.c_str(),
                static_cast<unsigned long long>(SimDigest(u->stats)));
  }
  std::printf("self-test: %s\n", ok ? "ok" : "FAILED");
  return ok ? 0 : 1;
}

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--smoke") {
      a->smoke = true;
    } else if (arg == "--self-test") {
      a->self_test = true;
    } else if (!has_value) {
      return false;
    } else if (arg == "--workload") {
      a->workload = argv[++i];
    } else if (arg == "--seed") {
      a->seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds") {
      a->seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace") {
      a->trace = std::atoi(argv[++i]);
    } else if (arg == "--commit") {
      a->commit = argv[++i];
    } else {
      return false;
    }
  }
  return a->self_test ||
         (!a->workload.empty() && a->seconds > 0 &&
          (a->trace == 0 || a->trace == 1));
}

int Main(int argc, char** argv) {
  Args a;
  if (!ParseArgs(argc, argv, &a)) {
    std::fprintf(stderr,
                 "usage: unicc_bench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--smoke] [--commit ID]\n"
                 "       unicc_bench --self-test\n");
    return 2;
  }
  if (std::strcmp(UNICC_BENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr,
                 "unicc_bench: refusing to measure a non-Release build "
                 "(build type \"%s\")\n",
                 UNICC_BENCH_BUILD_TYPE);
    return 2;
  }
  PrintHost(a);
  if (a.self_test) return SelfTest();
  const Workload* w = FindWorkload(a.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "unicc_bench: unknown workload %s\n",
                 a.workload.c_str());
    return 2;
  }
  const std::uint64_t txns = a.smoke ? w->smoke_txns : w->txns;
  return a.trace == 1 ? RunLayered(a, *w, txns) : RunEndToEnd(a, *w, txns);
}

}  // namespace
}  // namespace unicc::perfbench

int main(int argc, char** argv) {
  return unicc::perfbench::Main(argc, argv);
}

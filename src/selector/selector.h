// Dynamic concurrency-control selection (paper, Section 5.2): each arriving
// transaction is assigned the protocol with the smallest estimated System
// Throughput Loss. Parameters come from the online ParamEstimator; STL
// values are cached per transaction class (bucketed by read/write counts)
// and refreshed periodically, as the paper suggests for speed.
//
// A refresh prices the three protocols at once: the calling thread takes
// the estimator snapshot, then it and up to two helper threads owned by
// the selector each run whole STL estimates. Every estimate reads the same
// immutable inputs and writes its own slot, and the choice compares the
// slots in the fixed 2PL, T/O, PA order, so values and choices are
// bit-identical whatever the thread count (docs/performance.md, "Parallel
// refresh").
#ifndef UNICC_SELECTOR_SELECTOR_H_
#define UNICC_SELECTOR_SELECTOR_H_

#include <array>
#include <cstdint>
#include <map>
#include <memory>

#include "common/types.h"
#include "sim/simulator.h"
#include "stl/estimators.h"
#include "txn/transaction.h"
#include "workload/generator.h"

namespace unicc {

struct SelectorOptions {
  // The first `warmup_txns` transactions round-robin over the protocols so
  // the estimator observes all three before STL drives decisions.
  std::uint64_t warmup_txns = 60;
  // Cached class STL values are recomputed after this many selections.
  std::uint64_t refresh_every = 50;
  // DP grid resolution for STL'.
  int grid_points = 32;
};

class MinStlSelector {
 public:
  // `sim` provides elapsed time for throughput snapshots; `estimator` must
  // outlive the selector; `num_queues` is the number of physical copies.
  MinStlSelector(const Simulator* sim, const ParamEstimator* estimator,
                 std::size_t num_queues, SelectorOptions options = {});
  // Stops and joins the helper threads, if any were started.
  ~MinStlSelector();
  MinStlSelector(const MinStlSelector&) = delete;
  MinStlSelector& operator=(const MinStlSelector&) = delete;

  // Chooses the protocol for `spec` (usable as a ProtocolPolicy).
  Protocol Choose(const TxnSpec& spec);

  // Adapter for Engine::SetProtocolPolicy.
  ProtocolPolicy AsPolicy();

  // Per-protocol selection counts (diagnostics).
  std::uint64_t selections(Protocol p) const {
    return selections_[static_cast<std::size_t>(p)];
  }

  // STL estimates for a class at the current simulated time (diagnostics
  // / tests). They are priced from a copy of the estimator, so asking does
  // not advance its decay clock and cannot change later choices. Not
  // const: pricing starts the helper threads on first use.
  struct ClassStl {
    double stl_2pl = 0;
    double stl_to = 0;
    double stl_pa = 0;
  };
  ClassStl EstimateFor(TxnShape shape);

  // Helper threads running: 0 until the first pricing, then min(2, CPUs in
  // the process affinity mask - 1), fewer if the system refused a thread.
  int helper_threads() const;

 private:
  struct Helpers;

  static std::uint64_t ClassKey(TxnShape shape);
  // Snapshots `est` on the calling thread (advancing its decay clock) and
  // prices the three protocols on it and the helpers.
  ClassStl Price(const ParamEstimator& est, TxnShape shape);
  void StartHelpers();
  void WaitForHelpers();
  // Runs the estimates of protocols worker, worker + workers, ... .
  void RunTasks(int worker);
  void HelperLoop(int worker);

  const Simulator* sim_;
  const ParamEstimator* estimator_;
  std::size_t num_queues_;
  SelectorOptions options_;

  // The pricing in flight. The caller writes the inputs before the start
  // barrier; each worker writes only its protocols' `stl_` slots, and the
  // caller reads them once every helper has finished.
  SystemParams sys_;
  TxnShape shape_;
  std::array<ProtocolParams, kNumProtocols> params_{};
  std::array<double, kNumProtocols> stl_{};
  std::unique_ptr<Helpers> helpers_;

  std::uint64_t decided_ = 0;
  std::map<std::uint64_t, std::pair<Protocol, std::uint64_t>> cache_;
  std::array<std::uint64_t, kNumProtocols> selections_{};
};

// The strawman Section 5.1 argues against: pick the protocol with the
// smallest observed mean system time. The paper predicts it is biased
// toward 2PL, because a deadlocking 2PL transaction shortens its own
// system time while prolonging everyone else's — the cost its choice
// imposes on the system is invisible to this policy.
class MinAvgTimeSelector {
 public:
  explicit MinAvgTimeSelector(std::uint64_t warmup_txns = 60);

  // Feed commits so the per-protocol means track reality.
  void OnCommit(const TxnResult& r);

  Protocol Choose(const TxnSpec& spec);
  ProtocolPolicy AsPolicy();

  std::uint64_t selections(Protocol p) const {
    return selections_[static_cast<std::size_t>(p)];
  }

 private:
  std::uint64_t warmup_txns_;
  std::uint64_t decided_ = 0;
  std::array<double, kNumProtocols> sum_ms_{};
  std::array<std::uint64_t, kNumProtocols> count_{};
  std::array<std::uint64_t, kNumProtocols> selections_{};
};

}  // namespace unicc

#endif  // UNICC_SELECTOR_SELECTOR_H_

// The two ways the benchmark runs a workload:
//
//   RunUntraced — the end-to-end path: runner::RunSession, tracing off.
//   RunTraced   — the same run assembled one public layer call at a time
//                 (ScenarioSpec, workload build / Open, EngineBuilder,
//                 Engine::Run, the serializability and replica checks),
//                 with the installed ProtocolPolicy, the EngineCallbacks
//                 estimator hooks and the ArrivalStream wrapped in timers
//                 and counters. It must reproduce RunUntraced's sim_digest.
//
// Both take the seed only through runner::RunRequest::seed.
#ifndef UNICC_PERFBENCH_TRACED_RUN_H_
#define UNICC_PERFBENCH_TRACED_RUN_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "runner/runner.h"
#include "workloads.h"

namespace unicc::perfbench {

double NowSeconds();

// FNV-1a over the deterministic RunStats fields perf_gate digests (its
// scenario digest fields followed by its overload-counter fields).
std::uint64_t SimDigest(const runner::RunStats& s);

// The correctness gate every run passes: serializable, replicas
// consistent, committed + expired + (shed - retried) == offered, and on a
// batch workload every offered transaction committed.
Status CheckRun(const Workload& w, const runner::RunStats& s,
                std::uint64_t offered);

// Offered transactions that did not count as goodput: shed without a
// successful retry, expired, or committed past their deadline.
std::uint64_t FailedTxns(const runner::RunStats& s, std::uint64_t offered);

struct UntracedRun {
  double setup_s = 0;  // parse + RunSession::Create + workload build
  double run_s = 0;    // RunSession::Run (event loop + verification)
  double wall_s = 0;   // set-up through session teardown
  std::uint64_t offered = 0;
  runner::RunStats stats;
};

// The end-to-end run. With `setup_only` the session is built and dropped
// without running (a set-up sample); only setup_s is filled then.
StatusOr<UntracedRun> RunUntraced(const Workload& w, std::uint64_t txns,
                                  std::uint64_t seed, bool setup_only = false);

// The self time of one layer in the traced run: its span's wall time
// minus the spans nested in it.
struct LayerTime {
  std::string name;
  double self_s = 0;
};

struct TracedRun {
  std::uint64_t offered = 0;
  runner::RunStats stats;
  double wall_s = 0;
  // Self time of every layer; together with `residual_s` (time between
  // the spans: stats extraction and clock reads) it adds up to wall_s.
  std::vector<LayerTime> layers;
  double residual_s = 0;
  // Additive per-layer quantities, seconds and counts, keyed by metric
  // name ("engine.run_s", "cc.grants", ...), so runs can be summed.
  std::map<std::string, double> sums;
};

StatusOr<TracedRun> RunTraced(const Workload& w, std::uint64_t txns,
                              std::uint64_t seed);

}  // namespace unicc::perfbench

#endif  // UNICC_PERFBENCH_TRACED_RUN_H_

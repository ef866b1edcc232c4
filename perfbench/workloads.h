// The benchmark's own workload definitions. Each workload is a scenario
// (docs/scenarios.md format) held as text in this directory, so the
// benchmark depends on no scenario file, example or experiment driver of
// the repository. The seed is deliberately absent from the text: it
// reaches the run only through runner::RunRequest::seed.
#ifndef UNICC_PERFBENCH_WORKLOADS_H_
#define UNICC_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace unicc::perfbench {

struct Workload {
  std::string name;
  // Open-system workloads stream their arrivals through bounded
  // admission; batch workloads schedule every arrival before the run.
  bool open_system = false;
  // Distinct inputs per benchmark run: input i runs with RunRequest::seed
  // = seed * inputs + i. Modelled S is aggregated over all of them, so one
  // input's luck (say, which protocol the min-STL selector settles on)
  // does not decide a run's figures.
  std::uint64_t inputs = 1;
  // Transactions per input at full size and in smoke mode.
  std::uint64_t txns = 0;
  std::uint64_t smoke_txns = 0;
  // The scenario text, with the transaction count substituted.
  std::string (*text)(std::uint64_t txns) = nullptr;
};

const std::vector<Workload>& Workloads();
// nullptr when `name` names no workload.
const Workload* FindWorkload(const std::string& name);

}  // namespace unicc::perfbench

#endif  // UNICC_PERFBENCH_WORKLOADS_H_

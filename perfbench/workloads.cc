#include "workloads.h"

namespace unicc::perfbench {

namespace {

// The quickstart cluster (2 user sites, 3 data sites, 64 items) with an
// even 2PL/T-O/PA mix at a raised arrival rate: the unified queue manager
// under contention. Batch admission.
std::string ContendedMix(std::uint64_t txns) {
  return R"([scenario]
name = contended_mix
description = quickstart cluster, even 2PL/T-O/PA mix, raised arrival rate

[engine]
user_sites = 2
data_sites = 3
items = 64
delay_ms = 10

[policy]
kind = mix
weights = 1,1,1

[class main]
txns = )" + std::to_string(txns) + R"(
rate = 120
size = 2..4
read_fraction = 0.5
compute_ms = 3
)";
}

// A 2M-row table (131072 rows x scale factor 16) under a YCSB-B-style
// mix: Zipf(0.99) point accesses, 90% reads, 5% range scans, replication
// 2 over 16 sites, fixed 2PL. Batch admission; contention is negligible,
// so the storage and workload data plane dominate.
std::string MacroYcsb(std::uint64_t txns) {
  return R"([scenario]
name = macro_ycsb
description = YCSB-style read/update/scan mix over a 2M-row table
scale_factor = 16

[table usertable]
rows = 131072

[engine]
user_sites = 8
data_sites = 8
replication = 2
delay_ms = 2
jitter_ms = 1

[policy]
kind = fixed
protocol = 2pl

[class ops]
table = usertable
txns = )" + std::to_string(txns) + R"(
rate = 600
size = 1..3
read_fraction = 0.9
access = zipf
theta = 0.99
scan_fraction = 0.05
scan_max = 40
compute_ms = 1
)";
}

// An open-system stream under the min-STL selector, cycling through three
// 8-second phases: read-mostly, then a write-heavy hotspot at twice the
// rate, then a cooldown (1280 transactions per cycle). Bounded admission:
// an MPL cap of 4 parks arrivals at a 64-entry gate during bursts, with
// deadline shedding and one retry. The deadline is sized so that no
// transaction fails at this load: every deadline timer is armed and
// cancelled, but none fires.
std::string AdaptiveOverload(std::uint64_t txns) {
  std::string text = R"([scenario]
name = adaptive_overload
description = min-STL selection across phase shifts under bounded admission

[engine]
user_sites = 4
data_sites = 4
items = 100
delay_ms = 5
jitter_ms = 2

[policy]
kind = minstl
estimator_window_ms = 4000

[run]
max_inflight = 4
queue_limit = 64
shed_policy = deadline
retry_limit = 1
retry_ms = 50
retry_max_ms = 400

[class main]
txns = )" + std::to_string(txns) + R"(
rate = 40
size = 3
read_fraction = 0.8
deadline_ms = 20000
)";
  constexpr std::uint64_t kTxnsPerCycle = 1280, kPhaseMs = 8000;
  for (std::uint64_t c = 0; c * kTxnsPerCycle < txns; ++c) {
    const std::uint64_t t = 3 * kPhaseMs * c;
    const std::string n = std::to_string(c);
    if (c > 0) {
      text += "\n[phase calm" + n + "]\nstart_ms = " + std::to_string(t) +
              "\nrate = 40\nread_fraction = 0.8\naccess = uniform\n";
    }
    text += "\n[phase hotspot" + n + "]\nstart_ms = " +
            std::to_string(t + kPhaseMs) +
            "\nrate = 80\nread_fraction = 0.4\naccess = hotspot\n"
            "hot_items = 16\nhot_fraction = 0.5\n";
    text += "\n[phase cooldown" + n + "]\nstart_ms = " +
            std::to_string(t + 2 * kPhaseMs) +
            "\nrate = 40\nread_fraction = 0.6\naccess = uniform\n";
  }
  return text;
}

}  // namespace

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> kWorkloads = {
      {"contended_mix", false, 8, 25000, 400, ContendedMix},
      {"macro_ycsb", false, 4, 40000, 400, MacroYcsb},
      {"adaptive_overload", true, 24, 2560, 320, AdaptiveOverload},
  };
  return kWorkloads;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : Workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

}  // namespace unicc::perfbench

#include "traced_run.h"

#include <chrono>
#include <memory>
#include <unordered_set>
#include <utility>

#include "engine/builder.h"
#include "scenario/scenario.h"
#include "selector/selector.h"
#include "stl/estimators.h"

namespace unicc::perfbench {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

void MixDigest(std::uint64_t* h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    *h ^= (v >> (8 * i)) & 0xff;
    *h *= 1099511628211ULL;
  }
}

// The workload text parsed and resolved through RunSession::Create, which
// applies RunRequest::seed. For the end-to-end run of a batch workload the
// session replays `arrivals`, which are materialised from the session's
// own resolved spec after Create, so workload generation is timed as
// set-up instead of inside RunSession::Run. The run is the one Run would
// build itself from the same spec.
struct Session {
  std::unique_ptr<ScenarioSpec> spec;  // read by the session; keep alive
  std::vector<Arrival> arrivals;
  std::shared_ptr<std::unordered_set<TxnId>> forced;
  std::unique_ptr<runner::RunSession> session;
};

StatusOr<std::unique_ptr<Session>> CreateSession(const Workload& w,
                                                 std::uint64_t txns,
                                                 std::uint64_t seed,
                                                 bool replay_batch) {
  auto parsed = ScenarioSpec::Parse(w.text(txns));
  if (!parsed.ok()) return parsed.status();
  if (parsed->IsOpenSystem() != w.open_system) {
    return Status::Internal(w.name + ": admission mode disagrees with its "
                            "scenario text");
  }
  auto s = std::make_unique<Session>();
  s->spec = std::make_unique<ScenarioSpec>(std::move(parsed).value());
  s->forced = std::make_shared<std::unordered_set<TxnId>>();
  runner::RunRequest request;
  request.spec = s->spec.get();
  request.seed = seed;
  if (replay_batch && !w.open_system) {
    request.arrivals = &s->arrivals;
    request.forced = s->forced;
  }
  auto session = runner::RunSession::Create(std::move(request));
  if (!session.ok()) return session.status();
  s->session = std::move(session).value();
  if (replay_batch && !w.open_system) {
    ScenarioSpec::Workload built = s->session->spec().BuildWorkload();
    s->arrivals = std::move(built.arrivals);
    *s->forced = std::move(*built.forced);
  }
  return s;
}

// Wall-clock spans around the calls the engine makes into the wrapped
// policy, estimator hooks and arrival stream. Those calls never nest in
// one another; a nested call would be counted twice, so it fails the run.
class InnerSpans {
 public:
  enum Kind { kSelector = 0, kEstimator = 1, kStream = 2, kNumKinds = 3 };

  template <typename Fn>
  auto Time(Kind k, Fn&& fn) {
    if (open_) nested_ = true;
    open_ = true;
    const auto start = std::chrono::steady_clock::now();
    struct Close {
      InnerSpans* spans;
      Kind kind;
      std::chrono::steady_clock::time_point start;
      ~Close() {
        spans->ns_[kind] += (std::chrono::steady_clock::now() - start).count();
        ++spans->calls_[kind];
        spans->open_ = false;
      }
    } close{this, k, start};
    return fn();
  }

  double seconds(Kind k) const { return static_cast<double>(ns_[k]) * 1e-9; }
  std::uint64_t calls(Kind k) const { return calls_[k]; }
  double total_seconds() const {
    return seconds(kSelector) + seconds(kEstimator) + seconds(kStream);
  }
  bool nested() const { return nested_; }

 private:
  std::int64_t ns_[kNumKinds] = {0, 0, 0};
  std::uint64_t calls_[kNumKinds] = {0, 0, 0};
  bool open_ = false;
  bool nested_ = false;
};

// Times every pull the engine makes from the scenario's arrival stream.
class TimedStream : public ArrivalStream {
 public:
  TimedStream(std::unique_ptr<ArrivalStream> inner, InnerSpans* spans)
      : inner_(std::move(inner)), spans_(spans) {}
  bool Next(Arrival* out) override {
    return spans_->Time(InnerSpans::kStream,
                        [&] { return inner_->Next(out); });
  }

 private:
  std::unique_ptr<ArrivalStream> inner_;
  InnerSpans* spans_;
};

// The estimator hooks RunSession installs (runner::EstimatorCallbacks),
// each wrapped in an estimator span, plus the grant/reject/attempt counts
// the per-layer metrics read.
struct HookCounts {
  std::uint64_t grants = 0;
  std::uint64_t rejects = 0;
  std::uint64_t attempts = 0;
};

EngineCallbacks TimedCallbacks(EngineCallbacks in, InnerSpans* spans,
                               HookCounts* counts) {
  constexpr auto kEst = InnerSpans::kEstimator;
  EngineCallbacks out;
  out.on_commit = [f = std::move(in.on_commit), spans,
                   counts](const TxnResult& r) {
    counts->attempts += r.attempts;
    spans->Time(kEst, [&] { f(r); });
  };
  out.on_request_sent = [f = std::move(in.on_request_sent), spans](
                            Protocol p, OpType op) {
    spans->Time(kEst, [&] { f(p, op); });
  };
  out.on_lock_hold = [f = std::move(in.on_lock_hold), spans](
                         Protocol p, Duration d, bool aborted) {
    spans->Time(kEst, [&] { f(p, d, aborted); });
  };
  out.on_restart = [f = std::move(in.on_restart), spans](Protocol p,
                                                          TxnOutcome why) {
    spans->Time(kEst, [&] { f(p, why); });
  };
  out.on_grant = [f = std::move(in.on_grant), spans, counts](
                     const CopyId& c, OpType op, Protocol p) {
    ++counts->grants;
    spans->Time(kEst, [&] { f(c, op, p); });
  };
  out.on_reject = [f = std::move(in.on_reject), spans, counts](OpType op,
                                                               Protocol p) {
    ++counts->rejects;
    spans->Time(kEst, [&] { f(op, p); });
  };
  out.on_backoff_offer = [f = std::move(in.on_backoff_offer),
                          spans](OpType op) {
    spans->Time(kEst, [&] { f(op); });
  };
  return out;
}

}  // namespace

std::uint64_t SimDigest(const runner::RunStats& s) {
  std::uint64_t h = 1469598103934665603ULL;
  MixDigest(&h, s.committed);
  MixDigest(&h, s.deadlock_victims);
  MixDigest(&h, s.reject_restarts);
  MixDigest(&h, s.backoff_rounds);
  MixDigest(&h, s.serializable ? 1 : 0);
  for (int p = 0; p < kNumProtocols; ++p) {
    MixDigest(&h, s.committed_by_proto[p]);
  }
  MixDigest(&h, s.admitted);
  MixDigest(&h, s.shed);
  MixDigest(&h, s.expired);
  MixDigest(&h, s.retried);
  MixDigest(&h, s.goodput);
  return h;
}

Status CheckRun(const Workload& w, const runner::RunStats& s,
                std::uint64_t offered) {
  const std::string where = w.name + ": ";
  if (!s.serializable) return Status::Internal(where + "not serializable");
  if (!s.replicas_consistent) {
    return Status::Internal(where + "replicas inconsistent");
  }
  if (s.retried > s.shed ||
      s.committed + s.expired + (s.shed - s.retried) != offered) {
    return Status::Internal(
        where + "committed " + std::to_string(s.committed) + " + expired " +
        std::to_string(s.expired) + " + (shed " + std::to_string(s.shed) +
        " - retried " + std::to_string(s.retried) + ") != offered " +
        std::to_string(offered));
  }
  if (!w.open_system && s.committed != offered) {
    return Status::Internal(where + "batch run committed " +
                            std::to_string(s.committed) + " of " +
                            std::to_string(offered));
  }
  return Status::OK();
}

std::uint64_t FailedTxns(const runner::RunStats& s, std::uint64_t offered) {
  return offered > s.goodput ? offered - s.goodput : 0;
}

StatusOr<UntracedRun> RunUntraced(const Workload& w, std::uint64_t txns,
                                  std::uint64_t seed, bool setup_only) {
  UntracedRun out;
  const double t0 = NowSeconds();
  auto created = CreateSession(w, txns, seed, /*replay_batch=*/true);
  if (!created.ok()) return created.status();
  std::unique_ptr<Session> s = std::move(created).value();
  const double t1 = NowSeconds();
  out.setup_s = t1 - t0;
  out.offered = s->spec->TotalTxns();
  if (setup_only) return out;
  const runner::RunReport report = s->session->Run();
  const double t2 = NowSeconds();
  s.reset();
  out.wall_s = NowSeconds() - t0;
  out.run_s = t2 - t1;
  if (!report.status.ok()) return report.status;
  out.stats = report.stats;
  return out;
}

StatusOr<TracedRun> RunTraced(const Workload& w, std::uint64_t txns,
                              std::uint64_t seed) {
  TracedRun out;
  InnerSpans spans;
  HookCounts counts;
  double phases_s = 0;  // sum of the top-level spans below
  // Runs one top-level span: records its wall time as sums[total_name]
  // and its self time (minus the inner spans that ran inside it) as layer
  // `self_name`.
  auto phase = [&](const char* self_name, const char* total_name,
                   auto&& fn) {
    const double inner0 = spans.total_seconds();
    const double start = NowSeconds();
    fn();
    const double total = NowSeconds() - start;
    phases_s += total;
    out.sums[total_name] = total;
    out.layers.push_back(
        {self_name, total - (spans.total_seconds() - inner0)});
  };
  const double wall0 = NowSeconds();

  // scenario: parse, validate, and resolve RunRequest overrides.
  std::unique_ptr<Session> s;
  Status status = Status::OK();
  phase("scenario.parse", "scenario.parse_s", [&] {
    auto created = CreateSession(w, txns, seed, /*replay_batch=*/false);
    if (!created.ok()) {
      status = created.status();
    } else {
      s = std::move(created).value();
    }
  });
  if (!status.ok()) return status;
  const ScenarioSpec& spec = s->session->spec();
  out.offered = spec.TotalTxns();

  // workload: materialise the batch, or open the lazy stream.
  ScenarioSpec::Workload built;
  ScenarioSpec::OpenWorkload open;
  phase("workload.build", "workload.build_s", [&] {
    if (w.open_system) {
      open = spec.Open();
    } else {
      built = spec.BuildWorkload();
    }
  });
  std::shared_ptr<const std::unordered_set<TxnId>> forced =
      w.open_system ? open.forced : built.forced;

  // Policy stack, as RunSession assembles it. The min-STL selector needs
  // the engine's simulator, so the policy handed to the builder forwards
  // to a selector bound after Build.
  ParamEstimator estimator;
  estimator.SetDecayWindow(spec.policy.estimator_window);
  std::unique_ptr<MinStlSelector> selector;
  ProtocolPolicy base;
  switch (spec.policy.kind) {
    case ScenarioPolicy::Kind::kFixed:
      base = FixedProtocol(spec.policy.fixed);
      break;
    case ScenarioPolicy::Kind::kMix:
      base = MixedProtocol(spec.policy.weights[0], spec.policy.weights[1],
                           spec.policy.weights[2],
                           Rng(spec.engine.seed ^ 77));
      break;
    case ScenarioPolicy::Kind::kMinStl:
      base = [&selector](const TxnSpec& t) { return selector->Choose(t); };
      break;
    default:
      return Status::Unimplemented(w.name + ": the traced run supports the "
                                   "fixed, mix and minstl policies");
  }
  ProtocolPolicy installed = ForcedAwarePolicy(std::move(base), forced);
  std::uint64_t picks[kNumProtocols] = {0, 0, 0};
  ProtocolPolicy traced = [&spans, &picks,
                           installed = std::move(installed)](const TxnSpec& t) {
    const Protocol p = spans.Time(InnerSpans::kSelector,
                                  [&] { return installed(t); });
    ++picks[static_cast<int>(p)];
    return p;
  };

  // engine: build through EngineBuilder, then admit the batch.
  std::unique_ptr<Engine> engine;
  phase("engine.build", "engine.build_s", [&] {
    EngineBuilder builder(spec.engine);
    builder.WithCallbacks(TimedCallbacks(runner::EstimatorCallbacks(&estimator),
                                         &spans, &counts));
    builder.WithProtocolPolicy(std::move(traced));
    if (w.open_system) {
      builder.WithArrivalStream(
          std::make_unique<TimedStream>(std::move(open.stream), &spans));
    }
    auto e = builder.Build();
    if (!e.ok()) {
      status = e.status();
      return;
    }
    engine = std::move(e).value();
    if (spec.policy.kind == ScenarioPolicy::Kind::kMinStl) {
      selector = std::make_unique<MinStlSelector>(
          &engine->simulator(), &estimator,
          static_cast<std::size_t>(spec.engine.num_items) *
              spec.engine.replication);
    }
  });
  if (!status.ok()) return status;
  phase("engine.admit", "engine.admit_s", [&] {
    if (!w.open_system) status = engine->AddWorkload(built.arrivals);
  });
  if (!status.ok()) return status;

  // The event loop: simulator, queue managers, issuers, network and
  // deadlock detection, plus the wrapped policy, hooks and stream.
  RunSummary summary;
  phase("engine.other", "engine.run_s", [&] { summary = engine->Run(); });

  // Post-run verification, each check on its own.
  runner::RunStats& st = out.stats;
  phase("serializability.check", "serializability.check_s", [&] {
    st.serializable = engine->CheckSerializability().serializable;
  });
  phase("storage.replica_check", "storage.replica_check_s",
        [&] { st.replicas_consistent = engine->ReplicasConsistent(); });

  // The RunStats fields the gate and the digest read, as
  // runner::ExtractStats fills them.
  const RunMetrics& m = engine->metrics();
  st.mean_s_ms = m.MeanSystemTimeMs();
  st.p95_s_ms = m.SystemTime().PercentileMs(95);
  st.admitted = summary.admitted;
  st.committed = summary.committed;
  st.log_records = engine->log().TotalRecords();
  st.deadlock_victims = summary.deadlock_victims;
  st.reject_restarts = summary.reject_restarts;
  st.backoff_rounds = summary.backoff_rounds;
  st.shed = m.shed();
  st.expired = m.expired();
  st.retried = m.retried();
  st.goodput = m.goodput_committed();
  for (int p = 0; p < kNumProtocols; ++p) {
    st.committed_by_proto[p] =
        m.ForProtocol(static_cast<Protocol>(p)).committed;
  }
  std::uint64_t cc_msgs = 0;
  for (MessageKind k :
       {MessageKind::kCcRequest, MessageKind::kGrant, MessageKind::kBackoff,
        MessageKind::kPaAccept, MessageKind::kFinalTs, MessageKind::kReject,
        MessageKind::kRelease, MessageKind::kSemiTransform,
        MessageKind::kAbortTxn}) {
    cc_msgs += engine->transport().MessagesOfKind(k);
  }

  const auto count = [&out](const char* name, std::uint64_t v) {
    out.sums[name] = static_cast<double>(v);
  };
  count("engine.offered", out.offered);
  count("engine.committed", st.committed);
  count("engine.goodput", st.goodput);
  count("engine.shed", st.shed);
  count("engine.expired", st.expired);
  count("engine.retried", st.retried);
  count("engine.events", engine->simulator().EventsRun());
  count("storage.log_records", st.log_records);
  count("net.remote_msgs", summary.remote_messages);
  count("net.cc_msgs", cc_msgs);
  count("cc.grants", counts.grants);
  count("cc.rejects", counts.rejects);
  count("cc.attempts", counts.attempts);
  count("cc.backoff_rounds", st.backoff_rounds);
  count("cc.reject_restarts", st.reject_restarts);
  count("deadlock.victims", st.deadlock_victims);
  count("selector.pick_2pl", picks[0]);
  count("selector.pick_to", picks[1]);
  count("selector.pick_pa", picks[2]);

  phase("engine.teardown", "engine.teardown_s", [&] {
    engine.reset();
    selector.reset();
    built = {};
    s.reset();
  });
  out.wall_s = NowSeconds() - wall0;

  if (spans.nested()) {
    return Status::Internal(w.name + ": traced spans nested; the layer "
                            "times would double count");
  }
  out.sums["selector.s"] = spans.seconds(InnerSpans::kSelector);
  out.sums["stl.estimator_s"] = spans.seconds(InnerSpans::kEstimator);
  out.sums["workload.stream_s"] = spans.seconds(InnerSpans::kStream);
  count("selector.calls", spans.calls(InnerSpans::kSelector));
  count("stl.estimator_calls", spans.calls(InnerSpans::kEstimator));
  out.layers.push_back({"selector", out.sums["selector.s"]});
  out.layers.push_back({"stl.estimator", out.sums["stl.estimator_s"]});
  out.layers.push_back({"workload.stream", out.sums["workload.stream_s"]});
  for (const LayerTime& l : out.layers) {
    if (l.name == "engine.other") out.sums["engine.other_s"] = l.self_s;
  }
  out.residual_s = out.wall_s - phases_s;
  out.sums["trace.wall_s"] = out.wall_s;
  out.sums["trace.residual_s"] = out.residual_s;
  return out;
}

}  // namespace unicc::perfbench

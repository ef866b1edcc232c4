#include "selector/selector.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "common/rng.h"
#include "sim/simulator.h"

namespace unicc {
namespace {

TxnSpec MakeSpec(int reads, int writes) {
  TxnSpec spec;
  spec.id = 1;
  for (int i = 0; i < reads; ++i) spec.read_set.push_back(i);
  for (int i = 0; i < writes; ++i) spec.write_set.push_back(100 + i);
  return spec;
}

// Feeds `est` `events` random observations of every kind the engine
// reports, so each protocol's parameters move away from their defaults.
void Cook(ParamEstimator* est, Rng* rng, int events) {
  const auto proto = [&] {
    return static_cast<Protocol>(rng->UniformInt(kNumProtocols));
  };
  const auto op = [&] {
    return rng->Bernoulli(0.6) ? OpType::kRead : OpType::kWrite;
  };
  for (int i = 0; i < events; ++i) {
    const Protocol p = proto();
    const OpType o = op();
    est->OnRequestSent(p, o);
    est->OnGrant(o);
    if (rng->Bernoulli(0.2)) est->OnReject(o, Protocol::kTimestampOrdering);
    if (rng->Bernoulli(0.1)) est->OnBackoffOffer(o);
    est->OnLockHold(p, 1 + rng->UniformInt(200 * kMillisecond),
                    rng->Bernoulli(0.15));
    if (rng->Bernoulli(0.3)) {
      TxnResult r;
      r.protocol = p;
      r.attempts = 1 + static_cast<std::uint32_t>(rng->UniformInt(3));
      r.num_requests = 1 + rng->UniformInt(8);
      est->OnCommit(r);
    }
    if (rng->Bernoulli(0.05)) {
      est->OnRestart(Protocol::kTwoPhaseLocking,
                     TxnOutcome::kRestartedByDeadlock);
    }
  }
}

// Bitwise equality of doubles and of structs made only of doubles.
template <typename T>
bool SameBits(const T& a, const T& b) {
  return std::memcmp(&a, &b, sizeof(T)) == 0;
}

TEST(MinStlSelectorTest, WarmupRoundRobins) {
  Simulator sim;
  ParamEstimator est;
  SelectorOptions opt;
  opt.warmup_txns = 9;
  MinStlSelector sel(&sim, &est, 10, opt);
  const TxnSpec spec = MakeSpec(2, 2);
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 9; ++i) ++counts[static_cast<int>(sel.Choose(spec))];
  EXPECT_EQ(counts[0], 3);
  EXPECT_EQ(counts[1], 3);
  EXPECT_EQ(counts[2], 3);
}

TEST(MinStlSelectorTest, PicksMinimumStlAfterWarmup) {
  Simulator sim;
  ParamEstimator est;
  // Cook the estimator: 2PL aborts constantly and holds locks long; T/O
  // and PA are clean. The selector must avoid 2PL.
  for (int i = 0; i < 50; ++i) {
    est.OnGrant(OpType::kRead);
    est.OnGrant(OpType::kWrite);
    est.OnRequestSent(Protocol::kTwoPhaseLocking, OpType::kWrite);
    est.OnRequestSent(Protocol::kTimestampOrdering, OpType::kWrite);
    est.OnRequestSent(Protocol::kPrecedenceAgreement, OpType::kWrite);
    est.OnLockHold(Protocol::kTwoPhaseLocking, 500 * kMillisecond, false);
    est.OnLockHold(Protocol::kTimestampOrdering, 20 * kMillisecond, false);
    est.OnLockHold(Protocol::kPrecedenceAgreement, 20 * kMillisecond,
                   false);
  }
  for (int i = 0; i < 20; ++i) {
    TxnResult r;
    r.protocol = Protocol::kTwoPhaseLocking;
    r.attempts = 2;
    r.num_requests = 4;
    est.OnCommit(r);
    est.OnRestart(Protocol::kTwoPhaseLocking,
                  TxnOutcome::kRestartedByDeadlock);
  }
  SelectorOptions opt;
  opt.warmup_txns = 0;
  MinStlSelector sel(&sim, &est, 10, opt);
  const Protocol p = sel.Choose(MakeSpec(2, 2));
  EXPECT_NE(p, Protocol::kTwoPhaseLocking);
  // Consistency: the chosen protocol has the minimum estimate.
  const auto stl = sel.EstimateFor(TxnShape{2, 2});
  const double chosen_value = p == Protocol::kTimestampOrdering
                                  ? stl.stl_to
                                  : stl.stl_pa;
  EXPECT_LE(chosen_value, stl.stl_2pl);
}

TEST(MinStlSelectorTest, CachesPerClass) {
  Simulator sim;
  ParamEstimator est;
  SelectorOptions opt;
  opt.warmup_txns = 0;
  opt.refresh_every = 1000;
  MinStlSelector sel(&sim, &est, 10, opt);
  const TxnSpec spec = MakeSpec(1, 1);
  const Protocol first = sel.Choose(spec);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(sel.Choose(spec), first);  // cached decision
  }
  EXPECT_EQ(sel.selections(first), 51u);
}

TEST(MinStlSelectorTest, EstimatesArePositiveAndFinite) {
  Simulator sim;
  ParamEstimator est;
  MinStlSelector sel(&sim, &est, 10);
  for (int m = 0; m <= 4; ++m) {
    for (int n = 0; n <= 4; ++n) {
      if (m + n == 0) continue;
      const auto stl = sel.EstimateFor(TxnShape{m, n});
      EXPECT_GE(stl.stl_2pl, 0);
      EXPECT_GE(stl.stl_to, 0);
      EXPECT_GE(stl.stl_pa, 0);
      EXPECT_TRUE(std::isfinite(stl.stl_2pl));
      EXPECT_TRUE(std::isfinite(stl.stl_to));
      EXPECT_TRUE(std::isfinite(stl.stl_pa));
    }
  }
}

TEST(MinStlSelectorTest, HelpersStartAtTheFirstPricing) {
  Simulator sim;
  ParamEstimator est;
  SelectorOptions opt;
  opt.warmup_txns = 3;
  MinStlSelector sel(&sim, &est, 10, opt);
  EXPECT_EQ(sel.helper_threads(), 0);
  for (int i = 0; i < 3; ++i) sel.Choose(MakeSpec(1, 1));  // warm-up only
  EXPECT_EQ(sel.helper_threads(), 0);
  sel.Choose(MakeSpec(1, 1));  // first refresh
  EXPECT_GE(sel.helper_threads(), 0);
  EXPECT_LE(sel.helper_threads(), kNumProtocols - 1);
}

// The parallel pricing must give exactly the serial Stl2pl/StlTo/StlPa
// values on the same snapshot, bit for bit, and every refresh must pick
// the minimum of them in the fixed 2PL, T/O, PA order.
TEST(MinStlSelectorTest, ParallelPricingMatchesSerialBitForBit) {
  Rng rng(2024);
  for (int state = 0; state < 4; ++state) {
    Simulator sim;
    ParamEstimator est;
    if (state >= 2) est.SetDecayWindow(4 * kSecond);
    // State 0 is the fresh estimator; the others are cooked.
    for (int step = 0; step < state * 3; ++step) {
      Cook(&est, &rng, 40);
      sim.RunUntil(sim.Now() + 1 + rng.UniformInt(3 * kSecond));
    }
    SelectorOptions opt;
    opt.warmup_txns = 0;
    opt.refresh_every = 1;
    MinStlSelector sel(&sim, &est, 10, opt);
    for (int m = 0; m <= 4; ++m) {
      for (int n = 0; n <= 4; ++n) {
        SCOPED_TRACE(testing::Message() << state << ": " << m << "x" << n);
        const TxnShape shape{m, n};
        const MinStlSelector::ClassStl got = sel.EstimateFor(shape);

        const SystemParams sys = ParamEstimator(est).Snapshot(sim.Now(), 10);
        const StlEvaluator ev(sys, opt.grid_points);
        const double want_2pl =
            Stl2pl(ev, shape, est.For(Protocol::kTwoPhaseLocking));
        const double want_to =
            StlTo(ev, shape, est.For(Protocol::kTimestampOrdering));
        const double want_pa =
            StlPa(ev, shape, est.For(Protocol::kPrecedenceAgreement));
        EXPECT_TRUE(SameBits(got.stl_2pl, want_2pl));
        EXPECT_TRUE(SameBits(got.stl_to, want_to));
        EXPECT_TRUE(SameBits(got.stl_pa, want_pa));

        Protocol want = Protocol::kTwoPhaseLocking;
        double best = want_2pl;
        if (want_to < best) {
          want = Protocol::kTimestampOrdering;
          best = want_to;
        }
        if (want_pa < best) want = Protocol::kPrecedenceAgreement;
        EXPECT_EQ(sel.Choose(MakeSpec(m, n)), want);
      }
    }
  }
}

// EstimateFor prices a copy of the estimator. With a decay window, asking
// for an estimate between refreshes must not advance the real decay clock:
// one extra decay step changes the rounding of every later snapshot.
TEST(MinStlSelectorTest, EstimateForDoesNotPerturbLaterChoices) {
  Simulator sim_a, sim_b;
  ParamEstimator est_a, est_b;
  est_a.SetDecayWindow(4 * kSecond);
  est_b.SetDecayWindow(4 * kSecond);
  SelectorOptions opt;
  opt.warmup_txns = 0;
  opt.refresh_every = 1;
  MinStlSelector asked(&sim_a, &est_a, 10, opt);
  MinStlSelector quiet(&sim_b, &est_b, 10, opt);
  Rng rng_a(7), rng_b(7), times(11);
  for (int step = 0; step < 40; ++step) {
    const SimTime mid = sim_a.Now() + 1 + times.UniformInt(kSecond);
    const SimTime next = mid + 1 + times.UniformInt(kSecond);
    Cook(&est_a, &rng_a, 10);
    Cook(&est_b, &rng_b, 10);
    sim_a.RunUntil(mid);
    asked.EstimateFor(TxnShape{2, 2});
    sim_a.RunUntil(next);
    sim_b.RunUntil(next);
    const TxnSpec spec = MakeSpec(1 + step % 3, step % 4);
    ASSERT_EQ(asked.Choose(spec), quiet.Choose(spec)) << "step " << step;
  }
  EXPECT_TRUE(SameBits(est_a.Snapshot(sim_a.Now(), 10),
                       est_b.Snapshot(sim_b.Now(), 10)));
  EXPECT_TRUE(SameBits(asked.EstimateFor(TxnShape{3, 1}),
                       quiet.EstimateFor(TxnShape{3, 1})));
}

TEST(MinAvgTimeSelectorTest, PicksSmallestObservedMean) {
  MinAvgTimeSelector sel(/*warmup_txns=*/0);
  auto feed = [&](Protocol p, Duration st) {
    TxnResult r;
    r.protocol = p;
    r.arrival = 0;
    r.commit = st;
    sel.OnCommit(r);
  };
  feed(Protocol::kTwoPhaseLocking, 30 * kMillisecond);
  feed(Protocol::kTimestampOrdering, 10 * kMillisecond);
  feed(Protocol::kPrecedenceAgreement, 20 * kMillisecond);
  TxnSpec spec = MakeSpec(1, 1);
  EXPECT_EQ(sel.Choose(spec), Protocol::kTimestampOrdering);
}

TEST(MinAvgTimeSelectorTest, DefaultsTo2plWithoutData) {
  MinAvgTimeSelector sel(/*warmup_txns=*/0);
  EXPECT_EQ(sel.Choose(MakeSpec(1, 1)), Protocol::kTwoPhaseLocking);
}

}  // namespace
}  // namespace unicc

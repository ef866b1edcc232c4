#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <ios>

#include "stl/estimators.h"
#include "stl/evaluator.h"

namespace unicc {
namespace {

SystemParams DefaultSys() {
  SystemParams s;
  s.lambda_a = 100;
  s.lambda_r = 0.4;
  s.lambda_w = 0.6;
  s.q_r = 0.5;
  s.k_avg = 4;
  return s;
}

TEST(StlEvaluatorTest, ZeroDurationZeroLoss) {
  StlEvaluator ev(DefaultSys());
  EXPECT_EQ(ev.Evaluate(5, 0), 0);
}

TEST(StlEvaluatorTest, SaturatedLossIsLambdaAU) {
  StlEvaluator ev(DefaultSys());
  EXPECT_DOUBLE_EQ(ev.Evaluate(100, 0.5), 100 * 0.5);
  EXPECT_DOUBLE_EQ(ev.Evaluate(150, 0.5), 100 * 0.5);
}

TEST(StlEvaluatorTest, BoundedByLambdaAU) {
  StlEvaluator ev(DefaultSys());
  for (double l : {0.5, 2.0, 10.0, 50.0}) {
    for (double u : {0.01, 0.1, 1.0}) {
      const double v = ev.Evaluate(l, u);
      EXPECT_LE(v, 100 * u * 1.0001) << "l=" << l << " u=" << u;
      EXPECT_GE(v, l * u * 0.9999) << "l=" << l << " u=" << u;
    }
  }
}

TEST(StlEvaluatorTest, MonotoneInInitialLoss) {
  StlEvaluator ev(DefaultSys());
  double prev = 0;
  for (double l : {1.0, 5.0, 20.0, 60.0, 90.0}) {
    const double v = ev.Evaluate(l, 0.2);
    EXPECT_GT(v, prev);
    prev = v;
  }
}

TEST(StlEvaluatorTest, MonotoneInDuration) {
  StlEvaluator ev(DefaultSys());
  double prev = 0;
  for (double u : {0.05, 0.1, 0.2, 0.5, 1.0}) {
    const double v = ev.Evaluate(10, u);
    EXPECT_GT(v, prev);
    prev = v;
  }
}

TEST(StlEvaluatorTest, NoEscalationWhenLambdaNewZero) {
  SystemParams s = DefaultSys();
  s.lambda_r = 0;
  s.lambda_w = 0;
  StlEvaluator ev(s);
  EXPECT_DOUBLE_EQ(ev.Evaluate(7, 0.3), 7 * 0.3);
}

TEST(StlEvaluatorTest, LambdaBlockEdgeCases) {
  StlEvaluator ev(DefaultSys());
  EXPECT_DOUBLE_EQ(ev.LambdaBlock(0), 0);    // no loss, nothing blocks
  EXPECT_DOUBLE_EQ(ev.LambdaBlock(100), 0);  // no free throughput left
  EXPECT_GT(ev.LambdaBlock(50), 0);
}

TEST(StlEvaluatorTest, LambdaNewFormula) {
  StlEvaluator ev(DefaultSys());
  // λ_w + (1 − Q_r)·λ_r = 0.6 + 0.5*0.4.
  EXPECT_DOUBLE_EQ(ev.LambdaNew(), 0.6 + 0.5 * 0.4);
}

TEST(StlEvaluatorTest, GridRefinementConverges) {
  StlEvaluator coarse(DefaultSys(), 24);
  StlEvaluator fine(DefaultSys(), 96);
  const double a = coarse.Evaluate(10, 0.2);
  const double b = fine.Evaluate(10, 0.2);
  EXPECT_NEAR(a, b, std::max(a, b) * 0.08);
}

TEST(StlEvaluatorTest, SingleRequestTransactionsNeverEscalate) {
  // K = 1: a granted request's transaction has no other requests to block.
  SystemParams s = DefaultSys();
  s.k_avg = 1;
  StlEvaluator ev(s);
  EXPECT_NEAR(ev.Evaluate(10, 0.3), 10 * 0.3, 1e-9);
}

// STL' values of the reference DP, one per row, as hex-float literals so
// they compare bit for bit. The DP's results feed every min-STL decision,
// so a speed-up of Evaluate must reproduce them exactly: the per-point
// summation order is part of the contract (docs/performance.md).
struct GoldenStl {
  SystemParams sys;
  int grid;
  double lambda_loss;
  double u_seconds;
  double expected;
};

constexpr GoldenStl kGoldenStl[] = {
    // zero duration
    {{100, 0.4, 0.6, 0.5, 4}, 32, 5, 0, 0x0p+0},
    // saturated: l == lambda_a
    {{100, 0.4, 0.6, 0.5, 4}, 48, 100, 0.5, 0x1.9p+5},
    // saturated: l > lambda_a
    {{100, 0.4, 0.6, 0.5, 4}, 48, 150, 0.5, 0x1.9p+5},
    // lnew == 0: no escalation
    {{100, 0, 0, 0.5, 4}, 48, 7, 0.3, 0x1.0cccccccccccdp+1},
    // level 0 has l == 0, so b == 0
    {{100, 0.4, 0.6, 0.5, 4}, 32, 0, 0.1, 0x0p+0},
    // level 0 has 0 < b <= 1e-12
    {{100, 0.4, 0.6, 0.5, 4}, 32, 1e-13, 0.1, 0x1.6849b86a12adep-47},
    // K == 1: b == 0 at every level
    {{100, 0.4, 0.6, 0.5, 1}, 32, 10, 0.3, 0x1.8p+1},
    // 4096-level cap
    {{100, 0, 0.001, 0.5, 4}, 32, 1, 0.05, 0x1.99a14f0374937p-5},
    // 4096-level cap, grid 2
    {{100, 0, 0.001, 0.5, 4}, 2, 1, 0.05, 0x1.99a17f5af84ccp-5},
    // grid 2
    {{100, 0.4, 0.6, 0.5, 4}, 2, 10, 0.2, 0x1.67c871135a4e6p+1},
    // grid 32
    {{100, 0.4, 0.6, 0.5, 4}, 32, 10, 0.2, 0x1.3717eeaa994dep+1},
    // grid 48
    {{100, 0.4, 0.6, 0.5, 4}, 48, 10, 0.2, 0x1.370e4ce9451f5p+1},
    // grid 128
    {{100, 0.4, 0.6, 0.5, 4}, 128, 10, 0.2, 0x1.3707e5caeca08p+1},
    // few levels, long hold
    {{100, 0.4, 0.6, 0.5, 4}, 48, 60, 1, 0x1.20865b51c6f63p+6},
    // Points the min-STL selector priced on the adaptive_overload
    // benchmark workload, spanning its 116 to 464 loss levels.
    {{0x1.bec5a92c1be75p+7, 0x1.cfd50662fd71cp-1, 0x1.53f3c5fcb9797p+0,
      0x1.9cd51d41c7f4cp-2, 0x1.8000000000003p+1},
     32, 0x1.ace6b6e2aa25bp+2, 0x1.96ef47685334cp-6, 0x1.646f2413b376ap-3},
    {{0x1.8c2b8012a3b7ap+7, 0x1.bebb0e72c252ap-1, 0x1.1bbb6ea109ff3p+0,
      0x1.c13307ac41587p-2, 0x1.7ffffffffffffp+1},
     32, 0x1.7c52b863d05e6p+2, 0x1.3c30edde954c6p-6, 0x1.e3d8ec0d50199p-4},
    {{0x1.c17c1254c2796p+7, 0x1.04fe2d01e2cccp+0, 0x1.3a58f4b24953cp+0,
      0x1.c6488b65d55dep-2, 0x1.8p+1},
     32, 0x1.c25d21a7988f1p+1, 0x1.0e57cce6095f9p-6, 0x1.e99d44b06d87dp-5},
    {{0x1.95453a4cd0002p+7, 0x1.083e9f7a08944p+0, 0x1.fd00c6ef4b00cp-1,
      0x1.029bc5f1040ep-1, 0x1.7fffffffffffep+1},
     32, 0x1.7dc0953378409p+1, 0x1.c9b95086ccbf4p-6, 0x1.63b271091b342p-4},
    {{0x1.12dd997f6b8bbp+7, 0x1.c39d7ddb2835dp-1, 0x1.f814e2ff0969cp-2,
      0x1.4807871d8616ep-1, 0x1.8000000000002p+1},
     32, 0x1.9ed6940d37a2ap+1, 0x1.6f88ef276aa82p-7, 0x1.2c69242d5f466p-5},
    {{0x1.dbc7db78aa428p+6, 0x1.d25fa38c2cc8ap-1, 0x1.1d405b643b93ep-2,
      0x1.883c318fe95e3p-1, 0x1.8p+1},
     32, 0x1.abe08916595ddp-1, 0x1.6d2dcb1465e86p-7, 0x1.32d6e62752a0dp-7},
    {{0x1.aa5ec1cc2466cp+6, 0x1.bb79630ba5f0ep-1, 0x1.991e540f93404p-3,
      0x1.9ddf5dbaf8205p-1, 0x1.7fffffffffffep+1},
     32, 0x1.9950ba0ba810cp+1, 0x1.577c359b0a48dp-7, 0x1.139affa8cf324p-5},
    {{0x1.a355f864c4a96p+6, 0x1.dc6a14ea66531p-1, 0x1.e2af0ac92619bp-4,
      0x1.c71d6d25f914ap-1, 0x1.8p+1},
     32, 0x1.1b7573780ebbfp+1, 0x1.35d99a5b83c15p-6, 0x1.587a8a3eb25d5p-5},
    // More such points, chosen because their results change when the
    // slope term is computed as (g1 - g0) * (ej * c).
    {{0x1.7cc46c18534f8p+7, 0x1.ae26e29126adap-1, 0x1.104e60c214bd1p+0,
      0x1.c11ac27822478p-2, 0x1.8p+1},
     32, 0x1.37c48135d9393p+2, 0x1.398cceaffbdbep-5, 0x1.943bad37c17bbp-3},
    {{0x1.5e3b871e1a738p+7, 0x1.dac5abf578758p-1, 0x1.a5d2b82ea24bcp-1,
      0x1.0d5dd2925dde1p-1, 0x1.7fffffffffffep+1},
     32, 0x1.b30f752057d63p+1, 0x1.98301dc7f7f8fp-6, 0x1.65a8eb5cc313cp-4},
    {{0x1.7069081175404p+7, 0x1.b5b7b88063b5dp-1, 0x1.f969a3d54354fp-1,
      0x1.d9fcc95503ed7p-2, 0x1.7fffffffffffdp+1},
     32, 0x1.61ac82a01ea4p+2, 0x1.3fa0a78555c6p-6, 0x1.c5afbea219b2ep-4},
    {{0x1.cc2951926fcddp+7, 0x1.10afe5148805cp+0, 0x1.3c51cb031153ap+0,
      0x1.d8cb7f1c3ab8ep-2, 0x1.8p+1},
     32, 0x1.75954acc9101ap+2, 0x1.34d2abb0b0b43p-6, 0x1.d1c46971c3607p-4},
};

TEST(StlEvaluatorTest, MatchesGoldenValuesBitForBit) {
  for (const GoldenStl& g : kGoldenStl) {
    StlEvaluator ev(g.sys, g.grid);
    const double got = ev.Evaluate(g.lambda_loss, g.u_seconds);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
              std::bit_cast<std::uint64_t>(g.expected))
        << std::hexfloat << "grid=" << g.grid << " l=" << g.lambda_loss
        << " u=" << g.u_seconds << ": got " << got << ", want "
        << g.expected;
  }
}

TEST(StlEvaluatorTest, TinyLambdaNewStopsAtTheLevelCap) {
  // (100 - 1) / 1e-9 levels do not fit in an int; the DP must still stop
  // at 4096 levels. So little loss escalates within 50 ms that STL' stays
  // at the deterministic l*U.
  SystemParams s = DefaultSys();
  s.lambda_r = 0;
  s.lambda_w = 1e-9;
  StlEvaluator ev(s, 32);
  EXPECT_NEAR(ev.Evaluate(1, 0.05), 1 * 0.05, 1e-9);
}

TEST(EstimatorFormulaTest, LambdaT) {
  const SystemParams s = DefaultSys();
  // m=2 reads, n=3 writes: 2·λw + 3·(λw + λr).
  EXPECT_DOUBLE_EQ(LambdaT(s, {2, 3}), 2 * 0.6 + 3 * (0.6 + 0.4));
}

TEST(EstimatorFormulaTest, Stl2plNoAbortsEqualsPlainStl) {
  StlEvaluator ev(DefaultSys());
  ProtocolParams p;
  p.u_lock = 0.05;
  p.p_abort = 0;
  const TxnShape shape{2, 2};
  EXPECT_DOUBLE_EQ(Stl2pl(ev, shape, p),
                   ev.Evaluate(LambdaT(ev.params(), shape), 0.05));
}

TEST(EstimatorFormulaTest, Stl2plIncreasesWithAbortProbability) {
  StlEvaluator ev(DefaultSys());
  ProtocolParams p;
  p.u_lock = 0.05;
  p.u_lock_aborted = 0.03;
  const TxnShape shape{2, 2};
  double prev = 0;
  for (double pa : {0.0, 0.1, 0.3, 0.6}) {
    p.p_abort = pa;
    const double v = Stl2pl(ev, shape, p);
    EXPECT_GE(v, prev);
    prev = v;
  }
}

TEST(EstimatorFormulaTest, StlToIncreasesWithRejectProbability) {
  StlEvaluator ev(DefaultSys());
  ProtocolParams p;
  p.u_lock = 0.05;
  p.u_lock_aborted = 0.03;
  const TxnShape shape{2, 2};
  double prev = 0;
  for (double pr : {0.0, 0.1, 0.3, 0.5}) {
    p.p_reject_read = pr;
    p.p_reject_write = pr;
    const double v = StlTo(ev, shape, p);
    EXPECT_GT(v, prev * 0.999);
    prev = v;
  }
}

TEST(EstimatorFormulaTest, StlPaAtMostOneBackoff) {
  StlEvaluator ev(DefaultSys());
  ProtocolParams p;
  p.u_lock = 0.05;
  p.u_lock_aborted = 0.05;
  const TxnShape shape{2, 2};
  // Even with certain back-off, PA pays at most one extra STL' term.
  p.p_reject_read = 0.95;
  p.p_reject_write = 0.95;
  const double lt = LambdaT(ev.params(), shape);
  const double one = ev.Evaluate(lt, 0.05);
  const double v = StlPa(ev, shape, p);
  EXPECT_LE(v, 3.0 * one + 1e-9);
}

TEST(EstimatorFormulaTest, StlToVsPaWithSameProbabilities) {
  // With identical negative-response probabilities, T/O (geometric retry)
  // must cost at least as much as PA (single back-off).
  StlEvaluator ev(DefaultSys());
  ProtocolParams p;
  p.u_lock = 0.05;
  p.u_lock_aborted = 0.05;
  p.p_reject_read = 0.4;
  p.p_reject_write = 0.4;
  EXPECT_GE(StlTo(ev, {3, 3}, p), StlPa(ev, {3, 3}, p));
}

TEST(ParamEstimatorTest, SnapshotComputesRatesAndMix) {
  ParamEstimator est;
  for (int i = 0; i < 60; ++i) est.OnGrant(OpType::kRead);
  for (int i = 0; i < 40; ++i) est.OnGrant(OpType::kWrite);
  for (int i = 0; i < 30; ++i) {
    est.OnRequestSent(Protocol::kTwoPhaseLocking, OpType::kRead);
  }
  for (int i = 0; i < 10; ++i) {
    est.OnRequestSent(Protocol::kTwoPhaseLocking, OpType::kWrite);
  }
  TxnResult r;
  r.protocol = Protocol::kTwoPhaseLocking;
  r.num_requests = 5;
  r.attempts = 1;
  est.OnCommit(r);
  const SystemParams s = est.Snapshot(2 * kSecond, 10);
  EXPECT_DOUBLE_EQ(s.lambda_a, 50.0);      // 100 grants / 2s
  EXPECT_DOUBLE_EQ(s.lambda_r, 3.0);       // 60/2s/10 queues
  EXPECT_DOUBLE_EQ(s.lambda_w, 2.0);
  EXPECT_DOUBLE_EQ(s.q_r, 0.75);
  EXPECT_DOUBLE_EQ(s.k_avg, 5.0);
}

TEST(ParamEstimatorTest, RejectProbabilities) {
  ParamEstimator est;
  for (int i = 0; i < 100; ++i) {
    est.OnRequestSent(Protocol::kTimestampOrdering, OpType::kRead);
  }
  for (int i = 0; i < 20; ++i) {
    est.OnReject(OpType::kRead, Protocol::kTimestampOrdering);
  }
  const ProtocolParams p = est.For(Protocol::kTimestampOrdering);
  EXPECT_DOUBLE_EQ(p.p_reject_read, 0.2);
  EXPECT_DOUBLE_EQ(p.p_reject_write, 0.0);
}

TEST(ParamEstimatorTest, LockHoldMeans) {
  ParamEstimator est;
  est.OnLockHold(Protocol::kPrecedenceAgreement, 100 * kMillisecond, false);
  est.OnLockHold(Protocol::kPrecedenceAgreement, 200 * kMillisecond, false);
  est.OnLockHold(Protocol::kPrecedenceAgreement, 50 * kMillisecond, true);
  const ProtocolParams p = est.For(Protocol::kPrecedenceAgreement);
  EXPECT_NEAR(p.u_lock, 0.15, 1e-9);
  EXPECT_NEAR(p.u_lock_aborted, 0.05, 1e-9);
}

TEST(ParamEstimatorTest, DecayWindowForgetsOldStatistics) {
  // Phase one: T/O rejects half its reads. Much later (many windows),
  // phase two rejects nothing. A windowed estimator re-converges to the
  // recent behaviour; the default run-total estimator stays anchored on
  // the blended average.
  ParamEstimator windowed, total;
  windowed.SetDecayWindow(1 * kSecond);
  for (ParamEstimator* est : {&windowed, &total}) {
    for (int i = 0; i < 100; ++i) {
      est->OnRequestSent(Protocol::kTimestampOrdering, OpType::kRead);
    }
    for (int i = 0; i < 50; ++i) {
      est->OnReject(OpType::kRead, Protocol::kTimestampOrdering);
    }
    est->Snapshot(1 * kSecond, 1);  // advance the decay clock to t=1s
  }
  EXPECT_NEAR(windowed.For(Protocol::kTimestampOrdering).p_reject_read, 0.5,
              1e-9);
  // Phase two at t=10s: nine windows of silence decayed phase one to
  // e^-9; 100 clean requests now dominate the ratio.
  for (ParamEstimator* est : {&windowed, &total}) {
    est->Snapshot(10 * kSecond, 1);
    for (int i = 0; i < 100; ++i) {
      est->OnRequestSent(Protocol::kTimestampOrdering, OpType::kRead);
    }
    est->Snapshot(10 * kSecond + 1, 1);
  }
  EXPECT_LT(windowed.For(Protocol::kTimestampOrdering).p_reject_read, 0.01);
  EXPECT_NEAR(total.For(Protocol::kTimestampOrdering).p_reject_read, 0.25,
              1e-9);
}

TEST(ParamEstimatorTest, DecayedRatesUseTheWindowedTimeBase) {
  // A constant 100 grants/s fed in 100ms batches: after several windows
  // the windowed rate estimate converges to the true rate instead of
  // being diluted by the run length.
  ParamEstimator est;
  est.SetDecayWindow(2 * kSecond);
  SystemParams s{};
  for (int tick = 1; tick <= 200; ++tick) {
    for (int i = 0; i < 10; ++i) est.OnGrant(OpType::kRead);
    s = est.Snapshot(static_cast<SimTime>(tick) * 100 * kMillisecond, 1);
  }
  EXPECT_NEAR(s.lambda_r, 100.0, 10.0);
  // Exact commit count is never decayed.
  EXPECT_EQ(est.total_commits(), 0u);
}

TEST(ParamEstimatorTest, ZeroWindowKeepsRunTotals) {
  ParamEstimator est;  // default: no decay
  for (int i = 0; i < 10; ++i) {
    est.OnRequestSent(Protocol::kTimestampOrdering, OpType::kRead);
  }
  est.OnReject(OpType::kRead, Protocol::kTimestampOrdering);
  est.Snapshot(100 * kSecond, 1);
  est.Snapshot(200 * kSecond, 1);
  EXPECT_NEAR(est.For(Protocol::kTimestampOrdering).p_reject_read, 0.1,
              1e-12);
}

TEST(ParamEstimatorTest, TwoPlAbortProbability) {
  ParamEstimator est;
  for (int i = 0; i < 9; ++i) {
    TxnResult r;
    r.protocol = Protocol::kTwoPhaseLocking;
    r.attempts = 1;
    r.num_requests = 2;
    est.OnCommit(r);
  }
  est.OnRestart(Protocol::kTwoPhaseLocking,
                TxnOutcome::kRestartedByDeadlock);
  const ProtocolParams p = est.For(Protocol::kTwoPhaseLocking);
  EXPECT_NEAR(p.p_abort, 0.1, 1e-9);
}

}  // namespace
}  // namespace unicc

// Fault-injection scenarios for the anytime contract of Algorithm 1:
// whatever goes wrong inside the solver stack — a pricing MILP that never
// finds an incumbent, branch & bound truncated at its first incumbent,
// poisoned simplex pivots, an exhausted deadline, malformed input —
// solve_column_generation must return (never throw) with `degraded`, a
// stop reason and a structured status set, and the result it does return
// must be *trustworthy*: every schedule in the timeline passes the
// independent ScheduleVerifier and best_lower_bound() never exceeds the
// incumbent objective.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "check/schedule_verifier.h"
#include "common/fault_injection.h"
#include "core/column_generation.h"
#include "mmwave/network.h"
#include "video/demand.h"

namespace mmwave::core {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

net::Network make_net(std::uint64_t seed, int links, int channels = 2,
                      int levels = 2) {
  common::Rng rng(seed);
  net::NetworkParams p;
  p.num_links = links;
  p.num_channels = channels;
  p.sinr_thresholds.resize(levels);
  for (int q = 0; q < levels; ++q) p.sinr_thresholds[q] = 0.1 * (q + 1);
  return net::Network::table_i(p, rng);
}

std::vector<video::LinkDemand> random_demands(const net::Network& net,
                                              std::uint64_t seed) {
  common::Rng rng(seed * 131 + 7);
  std::vector<video::LinkDemand> d(net.num_links());
  for (auto& x : d) {
    x.hp_bits = rng.uniform(500.0, 2000.0);
    x.lp_bits = rng.uniform(500.0, 2000.0);
  }
  return d;
}

/// The degraded-result contract every scenario must satisfy: structured
/// status present, every returned schedule verifier-clean, LB <= UB.
void expect_trustworthy(const net::Network& net,
                        const std::vector<video::LinkDemand>& demands,
                        const CgResult& result) {
  EXPECT_FALSE(result.status.ok())
      << "degraded result must carry a non-Ok status";
  EXPECT_NE(result.stop_reason, CgStopReason::kConverged);

  const check::ScheduleVerifier referee(net);
  for (const sched::TimedSchedule& ts : result.timeline) {
    EXPECT_GE(ts.slots, 0.0);
    const check::VerifyReport report = referee.verify(ts.schedule);
    EXPECT_TRUE(report.ok()) << report.to_string();
  }
  const double lb = result.best_lower_bound();
  if (std::isfinite(lb) && result.total_slots > 0.0) {
    EXPECT_LE(lb, result.total_slots * (1.0 + 1e-6))
        << "a degraded result may never overclaim its bound";
  }
  (void)demands;
}

TEST(CgAnytime, CleanRunIsNotDegraded) {
  const auto net = make_net(1, 5);
  const auto demands = random_demands(net, 1);
  const auto result = solve_column_generation(net, demands, CgOptions{});
  EXPECT_FALSE(result.degraded);
  EXPECT_TRUE(result.status.ok()) << result.status.to_string();
  EXPECT_EQ(result.stop_reason, CgStopReason::kConverged);
  EXPECT_GT(result.solve_seconds, 0.0);
}

// ---------------------------------------------------------------------------
// Scenario: the exact pricing MILP never finds an incumbent (NoSolution).
// The solve hands back the incumbent master plan, degraded.
// ---------------------------------------------------------------------------
TEST(CgAnytime, PricingMilpNoSolutionDegradesWithUsablePlan) {
  const auto net = make_net(2, 5);
  const auto demands = random_demands(net, 2);
  common::FaultInjector inj(42);
  inj.arm(common::faults::kMilpNoSolution);  // every exact call fails
  common::FaultScope scope(inj);

  const auto result = solve_column_generation(net, demands, CgOptions{});
  EXPECT_TRUE(result.degraded);
  EXPECT_EQ(result.stop_reason, CgStopReason::kPricingFailure);
  EXPECT_EQ(result.status.code(), common::ErrorCode::kLimitHit)
      << result.status.to_string();
  EXPECT_GT(inj.fired(common::faults::kMilpNoSolution), 0);
  // The heuristic still priced columns and the master still covers every
  // demand, so the plan is complete even though optimality was lost.
  EXPECT_FALSE(result.timeline.empty());
  const check::ScheduleVerifier referee(net);
  EXPECT_TRUE(
      referee.verify_timeline(result.timeline, demands, result.unserved_links)
          .ok());
  expect_trustworthy(net, demands, result);
}

// An inconclusive exact-pricing call proves nothing, and nothing after it
// would: the first one ends the solve.  No second MILP call is made.
TEST(CgAnytime, InconclusivePricingEndsTheSolve) {
  const auto net = make_net(2, 5);
  const auto demands = random_demands(net, 2);
  common::FaultInjector inj(42);
  inj.arm(common::faults::kMilpNoSolution);  // every exact call fails
  common::FaultScope scope(inj);

  const auto result = solve_column_generation(net, demands, CgOptions{});
  EXPECT_EQ(inj.fired(common::faults::kMilpNoSolution), 1);
  EXPECT_EQ(result.profile.milp_calls, 1);
  EXPECT_EQ(result.stop_reason, CgStopReason::kPricingFailure);
  const check::ScheduleVerifier referee(net);
  EXPECT_TRUE(
      referee.verify_timeline(result.timeline, demands, result.unserved_links)
          .ok());
}

// ---------------------------------------------------------------------------
// Scenario: branch & bound is truncated at its first incumbent on every
// exact call.  Truncated pricing must keep reporting *valid* dual bounds,
// so the run either converges honestly or degrades with LB <= UB.
// ---------------------------------------------------------------------------
TEST(CgAnytime, MilpTruncationKeepsBoundsValid) {
  // This instance is picked so the final (certifying) pricing MILP
  // genuinely branches: a pricing problem that closes at the root never
  // reaches the node-loop fault site and still produces an honest exact
  // certificate despite the fault.
  const auto net = make_net(4, 12, 2, 2);
  const auto demands = random_demands(net, 4);
  common::FaultInjector inj(7);
  inj.arm(common::faults::kMilpTruncate);
  common::FaultScope scope(inj);

  CgOptions opts;
  opts.pricing = PricingMode::ExactAlways;
  const auto result = solve_column_generation(net, demands, opts);
  ASSERT_GT(inj.fired(common::faults::kMilpTruncate), 0)
      << "scenario did not bite: pricing never reached the node loop";
  // The fault fired on the certifying call: the last pricing round saw no
  // improving column but came back truncated instead of exact (ExactAlways
  // with the default limits truncates only through the fault here).
  ASSERT_FALSE(result.history.empty());
  EXPECT_FALSE(result.history.back().exact_pricing)
      << "the certifying call closed honestly; the fault did not reach it";
  EXPECT_GE(result.history.back().phi, -kCgEps);
  ASSERT_TRUE(result.degraded);
  EXPECT_TRUE(result.stop_reason == CgStopReason::kPricingFailure ||
              result.stop_reason == CgStopReason::kStalled)
      << to_string(result.stop_reason);
  EXPECT_FALSE(result.timeline.empty());
  const check::ScheduleVerifier referee(net);
  EXPECT_TRUE(
      referee.verify_timeline(result.timeline, demands, result.unserved_links)
          .ok());
  expect_trustworthy(net, demands, result);
}

// ---------------------------------------------------------------------------
// Scenario: a poisoned simplex pivot.  One poisoned pivot is absorbed by
// the master's cold retry (no degradation); a persistent poison degrades
// the solve instead of crashing it.
// ---------------------------------------------------------------------------
TEST(CgAnytime, SinglePivotPoisonAbsorbedByColdRetry) {
  const auto net = make_net(4, 5);
  const auto demands = random_demands(net, 4);
  common::FaultInjector inj(1);
  inj.arm(common::faults::kLpPivotPoison, {.times = 1});
  common::FaultScope scope(inj);

  const auto result = solve_column_generation(net, demands, CgOptions{});
  EXPECT_EQ(inj.fired(common::faults::kLpPivotPoison), 1);
  EXPECT_FALSE(result.degraded) << result.status.to_string();
  EXPECT_EQ(result.stop_reason, CgStopReason::kConverged);
}

TEST(CgAnytime, PersistentPivotPoisonDegradesGracefully) {
  const auto net = make_net(5, 5);
  const auto demands = random_demands(net, 5);
  common::FaultInjector inj(1);
  inj.arm(common::faults::kLpPivotPoison);  // every pivot, forever
  common::FaultScope scope(inj);

  CgOptions opts;
  opts.warm_start_master = false;  // no retry path: the hard failure mode
  const auto result = solve_column_generation(net, demands, opts);
  EXPECT_TRUE(result.degraded);
  EXPECT_EQ(result.stop_reason, CgStopReason::kMasterFailure);
  EXPECT_EQ(result.status.code(), common::ErrorCode::kNumericalBreakdown)
      << result.status.to_string();
  // No master solve ever succeeded: no plan to hand back, and the result
  // says so instead of fabricating one.
  EXPECT_TRUE(result.timeline.empty());
  expect_trustworthy(net, demands, result);
}

// ---------------------------------------------------------------------------
// Scenario: the deadline reads as exhausted mid-run.  The solve stops with
// kDeadline and still extracts the best incumbent plan from the columns
// priced so far (at minimum the TDMA initialization).
// ---------------------------------------------------------------------------
TEST(CgAnytime, InjectedDeadlineReturnsIncumbentPlan) {
  const auto net = make_net(6, 10, 3, 3);
  const auto demands = random_demands(net, 6);
  common::FaultInjector inj(9);
  inj.arm(common::faults::kCgDeadline, {.skip = 2, .times = 1});
  common::FaultScope scope(inj);

  const auto result = solve_column_generation(net, demands, CgOptions{});
  EXPECT_TRUE(result.degraded);
  EXPECT_EQ(result.stop_reason, CgStopReason::kDeadline);
  EXPECT_EQ(result.status.code(), common::ErrorCode::kDeadlineExceeded);
  EXPECT_EQ(result.iterations, 2);  // two iterations ran before the cut
  EXPECT_FALSE(result.timeline.empty());
  const check::ScheduleVerifier referee(net);
  EXPECT_TRUE(
      referee.verify_timeline(result.timeline, demands, result.unserved_links)
          .ok());
  expect_trustworthy(net, demands, result);
}

TEST(CgAnytime, InjectedDeadlineBeforeFirstIterationStillYieldsTdmaPlan) {
  const auto net = make_net(7, 5);
  const auto demands = random_demands(net, 7);
  common::FaultInjector inj(9);
  inj.arm(common::faults::kCgDeadline, {.times = 1});
  common::FaultScope scope(inj);

  const auto result = solve_column_generation(net, demands, CgOptions{});
  EXPECT_TRUE(result.degraded);
  EXPECT_EQ(result.stop_reason, CgStopReason::kDeadline);
  EXPECT_EQ(result.iterations, 0);
  // The final extraction still runs: the TDMA columns alone cover every
  // servable demand, so even a zero-iteration solve hands back a plan.
  EXPECT_FALSE(result.timeline.empty());
  const check::ScheduleVerifier referee(net);
  EXPECT_TRUE(
      referee.verify_timeline(result.timeline, demands, result.unserved_links)
          .ok());
  expect_trustworthy(net, demands, result);
}

// ---------------------------------------------------------------------------
// Scenario: malformed input.  Rejected before any solver arithmetic, with
// the validator's diagnosis in the status message.
// ---------------------------------------------------------------------------
TEST(CgAnytime, MalformedInstanceRejectedUpFront) {
  const auto net = make_net(8, 4);
  auto demands = random_demands(net, 8);
  demands[1].hp_bits = kNan;
  demands.pop_back();  // size mismatch too

  const auto result = solve_column_generation(net, demands, CgOptions{});
  EXPECT_TRUE(result.degraded);
  EXPECT_EQ(result.stop_reason, CgStopReason::kInvalidInput);
  EXPECT_EQ(result.status.code(), common::ErrorCode::kInvalidInput);
  EXPECT_NE(result.status.message().find("demand"), std::string::npos)
      << result.status.message();
  EXPECT_TRUE(result.timeline.empty());
  EXPECT_EQ(result.iterations, 0);
}

// ---------------------------------------------------------------------------
// Real wall-clock deadline on a Fig. 1 / Fig. 4 style instance (25 links,
// 5 channels, exact pricing — far more work than the budget allows).  The
// acceptance bar: overrun <= 10% of the requested deadline.
// ---------------------------------------------------------------------------
TEST(CgAnytime, DeadlineOverrunWithinTenPercent) {
  common::Rng rng(11);
  net::NetworkParams params;
  params.num_links = 25;
  const net::Network net = net::Network::table_i(params, rng);
  common::Rng drng(12);
  video::DemandConfig dcfg;
  dcfg.demand_scale = 1e-3;
  const auto demands = video::make_link_demands(25, dcfg, drng);

  CgOptions opts;
  opts.pricing = PricingMode::ExactAlways;
  opts.deadline_sec = 0.5;
  const auto result = solve_column_generation(net, demands, opts);
  EXPECT_TRUE(result.degraded);
  EXPECT_EQ(result.stop_reason, CgStopReason::kDeadline);
  EXPECT_LE(result.solve_seconds, opts.deadline_sec * 1.10)
      << "deadline overrun above the 10% acceptance bar";
  EXPECT_FALSE(result.timeline.empty());
  const check::ScheduleVerifier referee(net);
  EXPECT_TRUE(
      referee.verify_timeline(result.timeline, demands, result.unserved_links)
          .ok());
  expect_trustworthy(net, demands, result);
}

// ---------------------------------------------------------------------------
// Theorem-1 lower bound hardening: the Phi -> 1 pole and poisoned inputs
// must degrade to the trivially valid -inf (or a clamped finite bound),
// never emit NaN/+inf into a best-bound update.
// ---------------------------------------------------------------------------
TEST(Theorem1Guard, PositivePhiIsClampedAwayFromThePole) {
  const std::vector<double> lhp = {2.0}, llp = {1.0};
  const std::vector<video::LinkDemand> d = {{10.0, 4.0}};
  const double dual_value = 2.0 * 10.0 + 1.0 * 4.0;
  // Phi <= 0 divides normally...
  EXPECT_DOUBLE_EQ(theorem1_lower_bound(lhp, llp, d, -1.0), dual_value / 2.0);
  EXPECT_DOUBLE_EQ(theorem1_lower_bound(lhp, llp, d, 0.0), dual_value);
  // ...while a positive Phi — including the 1 - Phi -> 0 pole — clamps to
  // the Phi = 0 bound instead of dividing by ~0 (or a negative number).
  EXPECT_DOUBLE_EQ(theorem1_lower_bound(lhp, llp, d, 1.0 - 1e-12),
                   dual_value);
  EXPECT_DOUBLE_EQ(theorem1_lower_bound(lhp, llp, d, 1.0), dual_value);
  EXPECT_DOUBLE_EQ(theorem1_lower_bound(lhp, llp, d, 2.0), dual_value);
}

TEST(Theorem1Guard, PoisonedInputsReturnTriviallyValidBound) {
  const std::vector<double> lhp = {2.0}, llp = {1.0};
  const std::vector<video::LinkDemand> d = {{10.0, 4.0}};
  const double ninf = -std::numeric_limits<double>::infinity();
  EXPECT_EQ(theorem1_lower_bound(lhp, llp, d, kNan), ninf);
  EXPECT_EQ(theorem1_lower_bound({kNan}, llp, d, -0.5), ninf);
  EXPECT_EQ(theorem1_lower_bound(lhp, llp, {{kNan, 1.0}}, -0.5), ninf);
  const std::vector<double> huge = {1e308};
  EXPECT_EQ(theorem1_lower_bound(huge, huge, {{1e308, 1e308}}, -0.5), ninf);
  // -inf Phi (a truncated pricer certifying nothing) gives the weak-but-
  // valid bound 0, not NaN.
  EXPECT_DOUBLE_EQ(theorem1_lower_bound(lhp, llp, d, ninf), 0.0);
}

}  // namespace
}  // namespace mmwave::core

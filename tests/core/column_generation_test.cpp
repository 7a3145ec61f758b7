#include "core/column_generation.h"

#include <gtest/gtest.h>

#include <cmath>

#include "baselines/baselines.h"

namespace mmwave::core {
namespace {

net::Network make_net(std::uint64_t seed, int links, int channels,
                      int levels) {
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

TEST(ColumnGeneration, ConvergesAndCertifiesOptimality) {
  const auto net = make_net(1, 4, 2, 2);
  const auto demands = random_demands(net, 1);
  CgOptions opts;
  opts.pricing = PricingMode::ExactAlways;
  const auto result = solve_column_generation(net, demands, opts);
  EXPECT_TRUE(result.converged);
  EXPECT_GT(result.total_slots, 0.0);
  // Certified: gap between UB and Theorem-1 LB closes.
  ASSERT_FALSE(std::isnan(result.lower_bound));
  EXPECT_NEAR(result.gap(), 0.0, 1e-5);
}

TEST(ColumnGeneration, UpperBoundMonotoneNonIncreasing) {
  const auto net = make_net(2, 5, 2, 2);
  const auto demands = random_demands(net, 2);
  CgOptions opts;
  opts.pricing = PricingMode::ExactAlways;
  const auto result = solve_column_generation(net, demands, opts);
  for (std::size_t i = 1; i < result.history.size(); ++i) {
    EXPECT_LE(result.history[i].master_objective,
              result.history[i - 1].master_objective + 1e-6);
  }
}

TEST(ColumnGeneration, LowerBoundNeverExceedsUpperBound) {
  const auto net = make_net(3, 5, 2, 2);
  const auto demands = random_demands(net, 3);
  CgOptions opts;
  opts.pricing = PricingMode::ExactAlways;
  const auto result = solve_column_generation(net, demands, opts);
  for (const auto& it : result.history) {
    if (!std::isnan(it.lower_bound)) {
      EXPECT_LE(it.lower_bound, it.master_objective * (1.0 + 1e-9));
    }
  }
}

TEST(ColumnGeneration, BestLowerBoundMonotone) {
  const auto net = make_net(4, 5, 2, 2);
  const auto demands = random_demands(net, 4);
  CgOptions opts;
  opts.pricing = PricingMode::ExactAlways;
  const auto result = solve_column_generation(net, demands, opts);
  double prev = -1e300;
  for (const auto& it : result.history) {
    if (std::isnan(it.best_lower_bound)) continue;
    EXPECT_GE(it.best_lower_bound, prev - 1e-9);
    prev = it.best_lower_bound;
  }
}

TEST(ColumnGeneration, PhiNonPositiveUntilTermination) {
  const auto net = make_net(5, 5, 2, 2);
  const auto demands = random_demands(net, 5);
  CgOptions opts;
  opts.pricing = PricingMode::ExactAlways;
  const auto result = solve_column_generation(net, demands, opts);
  for (std::size_t i = 0; i + 1 < result.history.size(); ++i) {
    EXPECT_LT(result.history[i].phi, 0.0);
  }
  EXPECT_GE(result.history.back().phi, -opts.eps);
}

TEST(ColumnGeneration, FinalTimelineMeetsDemands) {
  const auto net = make_net(6, 5, 2, 2);
  const auto demands = random_demands(net, 6);
  const auto result = solve_column_generation(net, demands);
  const auto exec = sched::execute_timeline(net, result.timeline, demands);
  EXPECT_TRUE(exec.all_demands_met);
  EXPECT_NEAR(exec.total_slots, result.total_slots,
              1e-6 * result.total_slots);
}

TEST(ColumnGeneration, AllTimelineSchedulesFeasible) {
  const auto net = make_net(7, 6, 2, 3);
  const auto demands = random_demands(net, 7);
  const auto result = solve_column_generation(net, demands);
  for (const auto& ts : result.timeline) {
    const auto check = sched::validate_schedule(net, ts.schedule);
    EXPECT_TRUE(check.ok) << check.reason;
    EXPECT_GT(ts.slots, 0.0);
  }
}

TEST(ColumnGeneration, NeverWorseThanTdma) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const auto net = make_net(seed + 40, 5, 2, 2);
    const auto demands = random_demands(net, seed + 40);
    const auto cg = solve_column_generation(net, demands);
    const auto td = baselines::tdma(net, demands);
    ASSERT_TRUE(td.served_all);
    EXPECT_LE(cg.total_slots, td.total_slots * (1.0 + 1e-6))
        << "seed " << seed;
  }
}

class CgVsExhaustive : public ::testing::TestWithParam<int> {};

TEST_P(CgVsExhaustive, MatchesExhaustiveOptimum) {
  const std::uint64_t seed = static_cast<std::uint64_t>(GetParam());
  const auto net = make_net(seed + 1000, 4, 2, 2);
  const auto demands = random_demands(net, seed + 1000);

  const auto exact = baselines::exhaustive_optimal(net, demands);
  ASSERT_TRUE(exact.ok);

  CgOptions opts;
  opts.pricing = PricingMode::ExactAlways;
  const auto cg = solve_column_generation(net, demands, opts);
  ASSERT_TRUE(cg.converged) << "seed " << seed;
  EXPECT_NEAR(cg.total_slots, exact.total_slots,
              1e-5 * (1.0 + exact.total_slots))
      << "seed " << seed
      << " (exhaustive enumerated " << exact.num_feasible_schedules
      << " schedules)";
}

INSTANTIATE_TEST_SUITE_P(Seeds, CgVsExhaustive, ::testing::Range(0, 12));

// Also reads the B&B work counters of CgProfile: the hybrid's exact calls
// stop once the bound proves Psi <= 1 + eps, so its certification closes
// at the root, while ExactAlways closes the gap to the optimal Psi at
// every iteration and has to branch.
TEST(ColumnGeneration, HeuristicThenExactMatchesExactAlways) {
  std::int64_t exact_branch_nodes = 0;
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const auto net = make_net(seed + 60, 4, 2, 2);
    const auto demands = random_demands(net, seed + 60);
    CgOptions exact_opts;
    exact_opts.pricing = PricingMode::ExactAlways;
    const auto exact = solve_column_generation(net, demands, exact_opts);
    CgOptions hybrid_opts;
    hybrid_opts.pricing = PricingMode::HeuristicThenExact;
    const auto hybrid = solve_column_generation(net, demands, hybrid_opts);
    ASSERT_TRUE(exact.converged);
    ASSERT_TRUE(hybrid.converged);
    EXPECT_NEAR(hybrid.total_slots, exact.total_slots,
                1e-5 * (1.0 + exact.total_slots))
        << "seed " << seed;
    ASSERT_GT(hybrid.profile.milp_calls, 0) << "seed " << seed;
    EXPECT_EQ(hybrid.profile.milp_nodes, hybrid.profile.milp_calls)
        << "seed " << seed;
    EXPECT_GT(hybrid.profile.milp_lp_pivots, 0) << "seed " << seed;
    EXPECT_GE(exact.profile.milp_nodes, exact.profile.milp_calls);
    exact_branch_nodes += exact.profile.milp_nodes - exact.profile.milp_calls;
  }
  EXPECT_GT(exact_branch_nodes, 0);
}

TEST(ColumnGeneration, HeuristicOnlyIsUpperBound) {
  const auto net = make_net(70, 5, 2, 2);
  const auto demands = random_demands(net, 70);
  CgOptions exact_opts;
  exact_opts.pricing = PricingMode::ExactAlways;
  const auto exact = solve_column_generation(net, demands, exact_opts);
  CgOptions fast_opts;
  fast_opts.pricing = PricingMode::HeuristicOnly;
  const auto fast = solve_column_generation(net, demands, fast_opts);
  EXPECT_FALSE(fast.converged);  // no certificate in heuristic mode
  EXPECT_GE(fast.total_slots, exact.total_slots - 1e-6);
  // But it must still serve the demands.
  const auto exec = sched::execute_timeline(net, fast.timeline, demands);
  EXPECT_TRUE(exec.all_demands_met);
}

TEST(ColumnGeneration, GapToleranceStopsEarly) {
  const auto net = make_net(80, 6, 2, 3);
  const auto demands = random_demands(net, 80);
  CgOptions tight;
  tight.pricing = PricingMode::ExactAlways;
  const auto full = solve_column_generation(net, demands, tight);
  CgOptions loose;
  loose.pricing = PricingMode::ExactAlways;
  loose.gap_tolerance = 0.10;
  const auto early = solve_column_generation(net, demands, loose);
  EXPECT_TRUE(early.converged);
  EXPECT_LE(early.iterations, full.iterations);
  // The early answer is within the promised 10% of optimal.
  EXPECT_LE(early.total_slots, full.total_slots * 1.10 + 1e-6);
}

TEST(ColumnGeneration, ZeroDemandsTrivial) {
  const auto net = make_net(90, 4, 2, 2);
  std::vector<video::LinkDemand> demands(net.num_links());
  const auto result = solve_column_generation(net, demands);
  EXPECT_NEAR(result.total_slots, 0.0, 1e-9);
}

TEST(ColumnGeneration, IterationLimitRespected) {
  const auto net = make_net(91, 6, 3, 3);
  const auto demands = random_demands(net, 91);
  CgOptions opts;
  opts.max_iterations = 3;
  const auto result = solve_column_generation(net, demands, opts);
  EXPECT_LE(result.iterations, 3);
  // Even truncated, the incumbent serves the demands (master is feasible).
  const auto exec = sched::execute_timeline(net, result.timeline, demands);
  EXPECT_TRUE(exec.all_demands_met);
}

TEST(ColumnGeneration, HistoryColumnsGrow) {
  const auto net = make_net(92, 5, 2, 2);
  const auto demands = random_demands(net, 92);
  const auto result = solve_column_generation(net, demands);
  for (std::size_t i = 1; i < result.history.size(); ++i) {
    EXPECT_GE(result.history[i].num_columns,
              result.history[i - 1].num_columns);
  }
}

}  // namespace
}  // namespace mmwave::core

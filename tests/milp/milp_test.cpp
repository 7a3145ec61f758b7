#include "milp/milp.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/rng.h"

namespace mmwave::milp {
namespace {

using lp::kInfinity;
using lp::ObjSense;
using lp::Sense;

TEST(Milp, PureLpPassesThrough) {
  MilpModel m;
  m.set_objective_sense(ObjSense::Maximize);
  const int x = m.add_variable(0, 4, 3.0, VarType::Continuous);
  const int y = m.add_variable(0, kInfinity, 5.0, VarType::Continuous);
  m.add_constraint({{y, 2.0}}, Sense::Le, 12.0);
  m.add_constraint({{x, 3.0}, {y, 2.0}}, Sense::Le, 18.0);
  MilpSolution sol = solve_milp(m);
  EXPECT_EQ(sol.status, MilpStatus::Optimal);
  EXPECT_NEAR(sol.objective, 36.0, 1e-7);
  // One node, whose LP pivots are all MilpSolution::lp_pivots counts.
  EXPECT_EQ(sol.nodes, 1);
  EXPECT_EQ(sol.lp_pivots, lp::solve_lp(m.lp()).iterations);
  EXPECT_GT(sol.lp_pivots, 0);
}

TEST(Milp, SimpleIntegerRounding) {
  // max x st 2x <= 7, x integer -> x = 3 (LP gives 3.5).
  MilpModel m;
  m.set_objective_sense(ObjSense::Maximize);
  const int x = m.add_variable(0, kInfinity, 1.0, VarType::Integer);
  m.add_constraint({{x, 2.0}}, Sense::Le, 7.0);
  MilpSolution sol = solve_milp(m);
  ASSERT_EQ(sol.status, MilpStatus::Optimal);
  EXPECT_NEAR(sol.objective, 3.0, 1e-9);
  EXPECT_NEAR(sol.x[x], 3.0, 1e-9);
  // The root branches, and lp_pivots adds the x <= 3 child's pivots to the
  // root LP's.
  EXPECT_GT(sol.nodes, 1);
  EXPECT_GT(sol.lp_pivots, lp::solve_lp(m.lp()).iterations);
}

TEST(Milp, KnapsackAgainstDp) {
  // 0/1 knapsack solved exactly by DP, then compared to branch & bound.
  const std::vector<int> weights{3, 4, 5, 8, 9, 2, 6};
  const std::vector<int> values{2, 3, 6, 10, 13, 1, 7};
  const int capacity = 17;

  // DP over capacity.
  std::vector<int> dp(capacity + 1, 0);
  for (std::size_t i = 0; i < weights.size(); ++i) {
    for (int c = capacity; c >= weights[i]; --c)
      dp[c] = std::max(dp[c], dp[c - weights[i]] + values[i]);
  }
  const int dp_best = dp[capacity];

  MilpModel m;
  m.set_objective_sense(ObjSense::Maximize);
  std::vector<lp::Term> row;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    const int v = m.add_variable(0, 1, values[i], VarType::Binary);
    row.emplace_back(v, static_cast<double>(weights[i]));
  }
  m.add_constraint(row, Sense::Le, capacity);
  MilpSolution sol = solve_milp(m);
  ASSERT_EQ(sol.status, MilpStatus::Optimal);
  EXPECT_NEAR(sol.objective, dp_best, 1e-6);
}

class MilpRandomKnapsack : public ::testing::TestWithParam<int> {};

TEST_P(MilpRandomKnapsack, MatchesDp) {
  common::Rng rng(static_cast<std::uint64_t>(GetParam()) * 31337 + 5);
  const int n = static_cast<int>(5 + rng.uniform_index(8));
  std::vector<int> w(n), v(n);
  int wsum = 0;
  for (int i = 0; i < n; ++i) {
    w[i] = static_cast<int>(1 + rng.uniform_index(12));
    v[i] = static_cast<int>(1 + rng.uniform_index(20));
    wsum += w[i];
  }
  const int cap = std::max(1, wsum / 2);

  std::vector<int> dp(cap + 1, 0);
  for (int i = 0; i < n; ++i)
    for (int c = cap; c >= w[i]; --c)
      dp[c] = std::max(dp[c], dp[c - w[i]] + v[i]);

  MilpModel m;
  m.set_objective_sense(ObjSense::Maximize);
  std::vector<lp::Term> row;
  for (int i = 0; i < n; ++i) {
    const int var = m.add_variable(0, 1, v[i], VarType::Binary);
    row.emplace_back(var, static_cast<double>(w[i]));
  }
  m.add_constraint(row, Sense::Le, cap);
  MilpSolution sol = solve_milp(m);
  ASSERT_EQ(sol.status, MilpStatus::Optimal);
  EXPECT_NEAR(sol.objective, dp[cap], 1e-6) << "n=" << n << " cap=" << cap;
}

INSTANTIATE_TEST_SUITE_P(Seeds, MilpRandomKnapsack, ::testing::Range(0, 30));

TEST(Milp, AssignmentProblemIntegral) {
  // 3x3 assignment: min cost perfect matching; optimal value 1+2+1 = 4
  // for this cost matrix (rows pick columns 2,0,1).
  const double cost[3][3] = {{4, 7, 1}, {2, 8, 5}, {6, 2, 9}};
  MilpModel m;
  int var[3][3];
  for (int i = 0; i < 3; ++i)
    for (int j = 0; j < 3; ++j)
      var[i][j] = m.add_variable(0, 1, cost[i][j], VarType::Binary);
  for (int i = 0; i < 3; ++i) {
    std::vector<lp::Term> row, col;
    for (int j = 0; j < 3; ++j) {
      row.emplace_back(var[i][j], 1.0);
      col.emplace_back(var[j][i], 1.0);
    }
    m.add_constraint(row, Sense::Eq, 1.0);
    m.add_constraint(col, Sense::Eq, 1.0);
  }
  MilpSolution sol = solve_milp(m);
  ASSERT_EQ(sol.status, MilpStatus::Optimal);
  EXPECT_NEAR(sol.objective, 5.0, 1e-6);  // 1 + 2 + 2
}

TEST(Milp, InfeasibleIntegerProblem) {
  // 2x = 3 with x integer has no solution.
  MilpModel m;
  const int x = m.add_variable(0, 10, 1.0, VarType::Integer);
  m.add_constraint({{x, 2.0}}, Sense::Eq, 3.0);
  EXPECT_EQ(solve_milp(m).status, MilpStatus::Infeasible);
}

TEST(Milp, LpInfeasible) {
  MilpModel m;
  const int x = m.add_variable(0, 1, 1.0, VarType::Binary);
  m.add_constraint({{x, 1.0}}, Sense::Ge, 2.0);
  EXPECT_EQ(solve_milp(m).status, MilpStatus::Infeasible);
}

TEST(Milp, UnboundedDetected) {
  MilpModel m;
  m.set_objective_sense(ObjSense::Maximize);
  m.add_variable(0, kInfinity, 1.0, VarType::Continuous);
  EXPECT_EQ(solve_milp(m).status, MilpStatus::Unbounded);
}

TEST(Milp, BinaryBoundsClamped) {
  MilpModel m;
  const int x = m.add_variable(-5, 5, 1.0, VarType::Binary);
  EXPECT_DOUBLE_EQ(m.lp().variable(x).lb, 0.0);
  EXPECT_DOUBLE_EQ(m.lp().variable(x).ub, 1.0);
}

TEST(Milp, MixedIntegerContinuous) {
  // max 2x + y st x + y <= 3.7, x integer, y continuous -> x=3, y=0.7.
  MilpModel m;
  m.set_objective_sense(ObjSense::Maximize);
  const int x = m.add_variable(0, kInfinity, 2.0, VarType::Integer);
  const int y = m.add_variable(0, kInfinity, 1.0, VarType::Continuous);
  m.add_constraint({{x, 1.0}, {y, 1.0}}, Sense::Le, 3.7);
  MilpSolution sol = solve_milp(m);
  ASSERT_EQ(sol.status, MilpStatus::Optimal);
  EXPECT_NEAR(sol.x[x], 3.0, 1e-6);
  EXPECT_NEAR(sol.x[y], 0.7, 1e-6);
  EXPECT_NEAR(sol.objective, 6.7, 1e-6);
}

TEST(Milp, WarmStartAccepted) {
  MilpModel m;
  m.set_objective_sense(ObjSense::Maximize);
  std::vector<lp::Term> row;
  std::vector<double> warm;
  for (int i = 0; i < 6; ++i) {
    const int v = m.add_variable(0, 1, 1.0 + i, VarType::Binary);
    row.emplace_back(v, 1.0);
    warm.push_back(i >= 4 ? 1.0 : 0.0);  // picks the two most valuable
  }
  m.add_constraint(row, Sense::Le, 2.0);
  MilpSolution sol = solve_milp(m, {}, &warm);
  ASSERT_EQ(sol.status, MilpStatus::Optimal);
  EXPECT_NEAR(sol.objective, 11.0, 1e-6);
}

TEST(Milp, InfeasibleWarmStartIgnored) {
  MilpModel m;
  m.set_objective_sense(ObjSense::Maximize);
  const int x = m.add_variable(0, 1, 1.0, VarType::Binary);
  m.add_constraint({{x, 1.0}}, Sense::Le, 1.0);
  std::vector<double> warm{2.0};  // out of bounds
  MilpSolution sol = solve_milp(m, {}, &warm);
  ASSERT_EQ(sol.status, MilpStatus::Optimal);
  EXPECT_NEAR(sol.objective, 1.0, 1e-9);
}

TEST(Milp, TargetObjectiveStopsEarly) {
  MilpModel m;
  m.set_objective_sense(ObjSense::Maximize);
  std::vector<lp::Term> row;
  for (int i = 0; i < 12; ++i) {
    const int v = m.add_variable(0, 1, 1.0, VarType::Binary);
    row.emplace_back(v, 1.0);
  }
  m.add_constraint(row, Sense::Le, 6.0);
  MilpOptions opts;
  opts.target_objective = 3.0;  // any incumbent >= 3 suffices
  MilpSolution sol = solve_milp(m, opts);
  ASSERT_TRUE(sol.has_solution());
  EXPECT_GE(sol.objective, 3.0 - 1e-9);
}

TEST(Milp, NodeLimitYieldsValidBound) {
  common::Rng rng(77);
  MilpModel m;
  m.set_objective_sense(ObjSense::Maximize);
  std::vector<lp::Term> row;
  for (int i = 0; i < 25; ++i) {
    const int v =
        m.add_variable(0, 1, rng.uniform(1.0, 10.0), VarType::Binary);
    row.emplace_back(v, rng.uniform(1.0, 5.0));
  }
  m.add_constraint(row, Sense::Le, 20.0);
  MilpOptions opts;
  opts.max_nodes = 5;
  MilpSolution truncated = solve_milp(m, opts);
  MilpSolution full = solve_milp(m);
  ASSERT_EQ(full.status, MilpStatus::Optimal);
  if (truncated.has_solution()) {
    // Bound must bracket the true optimum from above (maximize).
    EXPECT_GE(truncated.best_bound, full.objective - 1e-6);
    EXPECT_LE(truncated.objective, full.objective + 1e-6);
  }
}

TEST(Milp, GapZeroAtOptimality) {
  MilpModel m;
  m.set_objective_sense(ObjSense::Maximize);
  const int x = m.add_variable(0, 5, 1.0, VarType::Integer);
  m.add_constraint({{x, 1.0}}, Sense::Le, 4.2);
  MilpSolution sol = solve_milp(m);
  ASSERT_EQ(sol.status, MilpStatus::Optimal);
  EXPECT_NEAR(sol.gap(), 0.0, 1e-9);
}

TEST(Milp, FeasibilityChecker) {
  MilpModel m;
  const int x = m.add_variable(0, 1, 1.0, VarType::Binary);
  const int y = m.add_variable(0, 10, 1.0, VarType::Continuous);
  m.add_constraint({{x, 1.0}, {y, 1.0}}, Sense::Le, 5.0);
  EXPECT_TRUE(is_feasible_point(m, {1.0, 3.0}));
  EXPECT_FALSE(is_feasible_point(m, {0.5, 3.0}));  // fractional binary
  EXPECT_FALSE(is_feasible_point(m, {1.0, 7.0}));  // violates row
  EXPECT_FALSE(is_feasible_point(m, {1.0, -1.0})); // violates bound
  EXPECT_FALSE(is_feasible_point(m, {1.0}));       // wrong arity
}

TEST(Milp, BigMDisjunctionStructure) {
  // A miniature of the SP's big-M SINR activation:
  //   maximize x1 + x2 (binaries), powers p1, p2 in [0,1],
  //   activation i requires p_i >= 0.8 - M (1 - x_i) with M = 0.8,
  //   and a coupling p1 + p2 <= 1 means both cannot be active at 0.8.
  MilpModel m;
  m.set_objective_sense(ObjSense::Maximize);
  const int x1 = m.add_variable(0, 1, 1.0, VarType::Binary);
  const int x2 = m.add_variable(0, 1, 1.0, VarType::Binary);
  const int p1 = m.add_variable(0, 1, 0.0, VarType::Continuous);
  const int p2 = m.add_variable(0, 1, 0.0, VarType::Continuous);
  // Activation written as p_i >= 0.8 x_i  <=>  0.8 x_i - p_i <= 0.
  m.add_constraint({{x1, 0.8}, {p1, -1.0}}, Sense::Le, 0.0);
  m.add_constraint({{x2, 0.8}, {p2, -1.0}}, Sense::Le, 0.0);
  m.add_constraint({{p1, 1.0}, {p2, 1.0}}, Sense::Le, 1.0);
  MilpSolution sol = solve_milp(m);
  ASSERT_EQ(sol.status, MilpStatus::Optimal);
  EXPECT_NEAR(sol.objective, 1.0, 1e-6);  // only one can meet its threshold
}

}  // namespace
}  // namespace mmwave::milp

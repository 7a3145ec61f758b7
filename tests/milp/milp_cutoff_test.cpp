// MilpOptions::cutoff: the search stops once the best open bound proves
// that no point beats the cutoff.  A model whose optimum beats the cutoff
// must solve exactly as without one; a model whose optimum does not must
// stop with status Cutoff and a best_bound that brackets the optimum from
// above and stays within the cutoff, after no more nodes than the uncut
// search.  A limit stop whose open bound still exceeds the cutoff (a node
// budget, a node LP that failed) is never reported as Cutoff.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/fault_injection.h"
#include "common/rng.h"
#include "milp/milp.h"

namespace mmwave::milp {
namespace {

using lp::ObjSense;
using lp::Sense;

/// Two-row 0/1 knapsack: the LP relaxation is fractional for almost every
/// draw, so branch & bound has to branch.
MilpModel random_knapsack(common::Rng& rng) {
  const int items = static_cast<int>(rng.uniform_int(6, 11));
  MilpModel m;
  m.set_objective_sense(ObjSense::Maximize);
  std::vector<lp::Term> row_a, row_b;
  double total_a = 0.0, total_b = 0.0;
  for (int i = 0; i < items; ++i) {
    const int v = m.add_variable(0, 1, rng.uniform(1.0, 10.0), VarType::Binary);
    const double wa = rng.uniform(1.0, 10.0), wb = rng.uniform(1.0, 10.0);
    row_a.emplace_back(v, wa);
    row_b.emplace_back(v, wb);
    total_a += wa;
    total_b += wb;
  }
  m.add_constraint(std::move(row_a), Sense::Le, 0.4 * total_a);
  m.add_constraint(std::move(row_b), Sense::Le, 0.4 * total_b);
  return m;
}

double root_lp_bound(const MilpModel& m) {
  const lp::LpSolution root = lp::solve_lp(m.lp());
  EXPECT_TRUE(root.optimal());
  return root.objective;
}

MilpSolution solve_with_cutoff(const MilpModel& m, double cutoff,
                               MilpOptions options = {}) {
  options.cutoff = cutoff;
  return solve_milp(m, options);
}

TEST(MilpCutoff, OptimumAboveTheCutoffSolvesAsUncut) {
  common::Rng rng(0xC0701);
  for (int trial = 0; trial < 30; ++trial) {
    const MilpModel m = random_knapsack(rng);
    const MilpSolution uncut = solve_milp(m);
    ASSERT_EQ(uncut.status, MilpStatus::Optimal) << "trial " << trial;
    for (const double cutoff :
         {uncut.objective - 1e-3, 0.5 * uncut.objective, 0.0}) {
      const MilpSolution cut = solve_with_cutoff(m, cutoff);
      EXPECT_EQ(cut.status, uncut.status) << "trial " << trial;
      EXPECT_EQ(cut.objective, uncut.objective) << "trial " << trial;
      EXPECT_EQ(cut.x, uncut.x) << "trial " << trial;
      EXPECT_EQ(cut.best_bound, uncut.best_bound) << "trial " << trial;
      EXPECT_EQ(cut.nodes, uncut.nodes) << "trial " << trial;
      EXPECT_EQ(cut.lp_pivots, uncut.lp_pivots) << "trial " << trial;
    }
  }
}

TEST(MilpCutoff, OptimumBelowTheCutoffStopsWithAValidBound) {
  common::Rng rng(0xC0702);
  int branched = 0;
  int cut_mid_tree = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const MilpModel m = random_knapsack(rng);
    const MilpSolution uncut = solve_milp(m);
    ASSERT_EQ(uncut.status, MilpStatus::Optimal) << "trial " << trial;
    if (uncut.nodes == 1) continue;  // root-integral: nothing to cut
    ++branched;
    const double opt = uncut.objective;
    const double root = root_lp_bound(m);
    ASSERT_GT(root, opt) << "trial " << trial;

    // A cutoff the root bound already meets: the search stops at node 1
    // and reports the root bound.
    const MilpSolution at_root = solve_with_cutoff(m, root + 0.5);
    EXPECT_EQ(at_root.status, MilpStatus::Cutoff) << "trial " << trial;
    EXPECT_EQ(at_root.nodes, 1) << "trial " << trial;
    EXPECT_NEAR(at_root.best_bound, root, 1e-9 * (1.0 + root));
    EXPECT_TRUE(at_root.error.ok()) << at_root.error.to_string();

    // Cutoffs between the optimum and the root bound: the search stops
    // once the open bound drops to the cutoff, unless the tree closes
    // first.
    for (const double t : {0.0, 0.25, 0.5, 0.75}) {
      const double cutoff = opt + t * (root - opt);
      const MilpSolution cut = solve_with_cutoff(m, cutoff);
      EXPECT_LE(cut.nodes, uncut.nodes) << "trial " << trial;
      if (cut.status == MilpStatus::Optimal) {
        EXPECT_EQ(cut.objective, opt) << "trial " << trial;
        continue;
      }
      ASSERT_EQ(cut.status, MilpStatus::Cutoff) << "trial " << trial;
      if (cut.nodes > 1) ++cut_mid_tree;
      EXPECT_GE(cut.best_bound, opt - 1e-9) << "trial " << trial;
      EXPECT_LE(cut.best_bound, cutoff + 1e-9) << "trial " << trial;
      // Without a warm start the search may stop before any rounding
      // produced an incumbent.
      if (cut.has_solution()) {
        EXPECT_TRUE(is_feasible_point(m, cut.x));
        EXPECT_LE(cut.objective, cut.best_bound) << "trial " << trial;
      }
    }
  }
  EXPECT_GT(branched, 10);
  EXPECT_GT(cut_mid_tree, 0) << "no cutoff fired below the root";
}

// Minimize sense: the cutoff is a value no point may fall below.  min
// x + y s.t. 2x + 2y >= 3, x, y integer: LP bound 1.5, optimum 2, and the
// root's rounding already finds the optimum.
TEST(MilpCutoff, MinimizeSenseStopsOnceTheBoundReachesTheCutoff) {
  MilpModel m;
  const int x = m.add_variable(0, 10, 1.0, VarType::Integer);
  const int y = m.add_variable(0, 10, 1.0, VarType::Integer);
  m.add_constraint({{x, 2.0}, {y, 2.0}}, Sense::Ge, 3.0);

  const MilpSolution cut = solve_with_cutoff(m, 1.5);
  EXPECT_EQ(cut.status, MilpStatus::Cutoff);
  EXPECT_EQ(cut.nodes, 1);
  EXPECT_NEAR(cut.best_bound, 1.5, 1e-9);
  ASSERT_TRUE(cut.has_solution());
  EXPECT_NEAR(cut.objective, 2.0, 1e-9);

  // An optimum that beats the cutoff: the ordinary search.
  const MilpSolution loose = solve_with_cutoff(m, 2.5);
  EXPECT_EQ(loose.status, MilpStatus::Optimal);
  EXPECT_NEAR(loose.objective, 2.0, 1e-9);
}

// Without any incumbent the Cutoff exit still carries its bound, and
// has_solution() says there is no point to read.  2x + 2y = 3 has no
// integer point at all; its LP bound 1.5 still proves nothing beats 1.5.
TEST(MilpCutoff, CutoffWithoutIncumbentHasNoSolution) {
  MilpModel m;
  const int x = m.add_variable(0, 10, 1.0, VarType::Integer);
  const int y = m.add_variable(0, 10, 1.0, VarType::Integer);
  m.add_constraint({{x, 2.0}, {y, 2.0}}, Sense::Eq, 3.0);

  const MilpSolution cut = solve_with_cutoff(m, 1.5);
  EXPECT_EQ(cut.status, MilpStatus::Cutoff);
  EXPECT_FALSE(cut.has_solution());
  EXPECT_TRUE(cut.x.empty());
  EXPECT_NEAR(cut.best_bound, 1.5, 1e-9);
  EXPECT_EQ(solve_milp(m).status, MilpStatus::Infeasible);
}

TEST(MilpCutoff, BudgetStopAboveTheCutoffIsNeverCutoff) {
  common::Rng rng(0xC0703);
  int checked = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const MilpModel m = random_knapsack(rng);
    MilpOptions budget;
    budget.max_nodes = 3;
    const MilpSolution uncut = solve_milp(m, budget);
    if (uncut.status != MilpStatus::Feasible) continue;
    ++checked;
    // The open bound at the stop exceeds the cutoff, so the budget stop
    // must come back exactly as without a cutoff.
    const double below = uncut.best_bound - 1e-3;
    const MilpSolution cut = solve_with_cutoff(m, below, budget);
    EXPECT_EQ(cut.status, MilpStatus::Feasible) << "trial " << trial;
    EXPECT_EQ(cut.best_bound, uncut.best_bound) << "trial " << trial;
    EXPECT_EQ(cut.nodes, uncut.nodes) << "trial " << trial;
    EXPECT_EQ(cut.error.code(), common::ErrorCode::kLimitHit);
    // A cutoff at or above that bound answers the question instead.
    const MilpSolution answered =
        solve_with_cutoff(m, uncut.best_bound, budget);
    EXPECT_EQ(answered.status, MilpStatus::Cutoff) << "trial " << trial;
    EXPECT_LE(answered.best_bound, uncut.best_bound) << "trial " << trial;
  }
  EXPECT_GT(checked, 5);
}

// A node LP that breaks down is held open with its parent's bound.  That
// bound exceeds the cutoff here, so the exit is an honest truncation.
TEST(MilpCutoff, FailedNodeLpHeldOpenIsNeverCutoff) {
  common::Rng rng(0xC0704);
  int checked = 0;
  for (int trial = 0; trial < 20; ++trial) {
    const MilpModel m = random_knapsack(rng);
    const MilpSolution uncut = solve_milp(m);
    if (uncut.nodes < 3) continue;
    const double root = root_lp_bound(m);
    const double cutoff = 0.5 * (uncut.objective + root);

    // Count the pivot-site hits of the root LP alone, then poison the
    // first pivot after it: the first child LP fails.
    int root_hits = 0;
    {
      common::FaultInjector probe;
      probe.arm(common::faults::kLpPivotPoison, {.skip = 1 << 30});
      common::FaultScope scope(probe);
      MilpOptions root_only;
      root_only.max_nodes = 1;
      (void)solve_with_cutoff(m, cutoff, root_only);
      root_hits = probe.hits(common::faults::kLpPivotPoison);
    }
    common::FaultInjector inj;
    inj.arm(common::faults::kLpPivotPoison, {.skip = root_hits});
    common::FaultScope scope(inj);
    const MilpSolution cut = solve_with_cutoff(m, cutoff);
    ++checked;
    EXPECT_GT(inj.fired(common::faults::kLpPivotPoison), 0);
    EXPECT_NE(cut.status, MilpStatus::Cutoff) << "trial " << trial;
    EXPECT_GT(cut.best_bound, cutoff) << "trial " << trial;
    EXPECT_GE(cut.best_bound, uncut.objective - 1e-9) << "trial " << trial;
    EXPECT_EQ(cut.error.code(), common::ErrorCode::kLimitHit)
        << cut.error.to_string();
  }
  EXPECT_GT(checked, 3);
}

}  // namespace
}  // namespace mmwave::milp

// The two branch-and-bound tolerances, each pinned from both sides by a
// model whose answer changes when the tolerance moves by a factor of ten:
// the integrality tolerance (1e-6) and the relative gap at which a
// budget-truncated solve still reports Optimal (1e-9).
#include <gtest/gtest.h>

#include "milp/milp.h"

namespace mmwave::milp {
namespace {

using lp::ObjSense;
using lp::Sense;

/// max x over integer x in [0, 10] with 1e5 x <= rhs: the root relaxation
/// puts x at rhs / 1e5.
MilpSolution solve_capped_integer(double rhs) {
  MilpModel m;
  m.set_objective_sense(ObjSense::Maximize);
  const int x = m.add_variable(0, 10, 1.0, VarType::Integer);
  m.add_constraint({{x, 1e5}}, Sense::Le, rhs);
  return solve_milp(m);
}

TEST(MilpTolerance, IntegralityToleranceIsOnePartInAMillion) {
  // 3 + 5e-6 is fractional: the root branches, the x <= 3 child is the
  // optimum and the x >= 4 child is infeasible.
  const MilpSolution branched = solve_capped_integer(300000.5);
  ASSERT_EQ(branched.status, MilpStatus::Optimal);
  EXPECT_EQ(branched.nodes, 3);
  EXPECT_NEAR(branched.objective, 3.0, 1e-12);
  // 3 + 5e-7 counts as integral: the root relaxation is the incumbent,
  // snapped to 3 but keeping its relaxed objective.
  const MilpSolution root = solve_capped_integer(300000.05);
  ASSERT_EQ(root.status, MilpStatus::Optimal);
  EXPECT_EQ(root.nodes, 1);
  EXPECT_EQ(root.x[0], 3.0);
  EXPECT_NEAR(root.objective, 3.0000005, 1e-12);
}

/// max 100 x + 1e-4 z over integers x, z with x <= 1 and z <= cap < 0.5,
/// stopped after the root node: the root relaxation (x = 1, z = cap)
/// bounds the answer at 100 + 1e-4 cap, rounding finds the incumbent 100,
/// and the relative gap is 1e-6 cap.  (z's cost stays above the LP's
/// relative optimality tolerance, so the relaxation does take z up.)
MilpSolution solve_truncated_after_root(double cap) {
  MilpModel m;
  m.set_objective_sense(ObjSense::Maximize);
  const int x = m.add_variable(0, 10, 100.0, VarType::Integer);
  const int z = m.add_variable(0, 1, 1e-4, VarType::Integer);
  m.add_constraint({{x, 1.0}}, Sense::Le, 1.0);
  m.add_constraint({{z, 1.0}}, Sense::Le, cap);
  MilpOptions opt;
  opt.max_nodes = 1;
  return solve_milp(m, opt);
}

TEST(MilpTolerance, TruncatedGapToleranceIsOnePartInABillion) {
  const MilpSolution wide = solve_truncated_after_root(5e-3);  // gap 5e-9
  EXPECT_EQ(wide.status, MilpStatus::Feasible);
  EXPECT_EQ(wide.nodes, 1);
  EXPECT_EQ(wide.objective, 100.0);
  EXPECT_NEAR(wide.gap(), 5e-9, 1e-15);
  const MilpSolution narrow = solve_truncated_after_root(4e-4);  // gap 4e-10
  EXPECT_EQ(narrow.status, MilpStatus::Optimal);
  EXPECT_EQ(narrow.nodes, 1);
  EXPECT_EQ(narrow.objective, 100.0);
  EXPECT_NEAR(narrow.gap(), 4e-10, 1e-15);
}

}  // namespace
}  // namespace mmwave::milp

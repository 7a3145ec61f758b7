// Additional simplex edge cases: equality duals, scaling extremes, larger
// random coverings, solver statistics, malformed models, the bound
// tolerance and termination under Bland's rule.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "check/lp_certificate.h"
#include "common/rng.h"
#include "common/status.h"
#include "lp/model.h"
#include "lp/simplex.h"
#include "support/cone_lp.h"

namespace mmwave::lp {
namespace {

TEST(SimplexEdge, EqualityRowDualSignFree) {
  // min x + y st x + y = 4, x <= 1.  Optimal (1, 3), obj 4.
  // Dual of the equality: marginal cost of the rhs = 1 (y absorbs it).
  LpModel m;
  const int x = m.add_variable(0, 1, 1.0);
  const int y = m.add_variable(0, kInfinity, 1.0);
  m.add_constraint({{x, 1.0}, {y, 1.0}}, Sense::Eq, 4.0);
  LpSolution sol = solve_lp(m);
  ASSERT_TRUE(sol.optimal());
  EXPECT_NEAR(sol.objective, 4.0, 1e-8);
  EXPECT_NEAR(sol.duals[0], 1.0, 1e-8);
}

TEST(SimplexEdge, NegativeEqualityDual) {
  // max x st x + s = 3 with cost... use: min -x st x = 3 -> dual = -1.
  LpModel m;
  const int x = m.add_variable(0, kInfinity, -1.0);
  m.add_constraint({{x, 1.0}}, Sense::Eq, 3.0);
  LpSolution sol = solve_lp(m);
  ASSERT_TRUE(sol.optimal());
  EXPECT_NEAR(sol.duals[0], -1.0, 1e-8);
}

TEST(SimplexEdge, LargeCoefficientScale) {
  // Demand-sized rhs (1e8) against slot-sized rates (1e2): the master
  // problem's actual numeric regime.
  LpModel m;
  const int t1 = m.add_variable(0, kInfinity, 1.0);
  const int t2 = m.add_variable(0, kInfinity, 1.0);
  m.add_constraint({{t1, 275.0}}, Sense::Ge, 8.6e7);
  m.add_constraint({{t2, 1170.0}}, Sense::Ge, 8.6e7);
  LpSolution sol = solve_lp(m);
  ASSERT_TRUE(sol.optimal());
  EXPECT_NEAR(sol.objective, 8.6e7 / 275.0 + 8.6e7 / 1170.0, 1.0);
  EXPECT_NEAR(sol.duals[0], 1.0 / 275.0, 1e-9);
}

TEST(SimplexEdge, TinyCoefficients) {
  LpModel m;
  const int x = m.add_variable(0, kInfinity, 1e-9);
  m.add_constraint({{x, 1e-6}}, Sense::Ge, 1e-6);
  LpSolution sol = solve_lp(m);
  ASSERT_TRUE(sol.optimal());
  EXPECT_NEAR(sol.x[x], 1.0, 1e-5);
}

TEST(SimplexEdge, ManyRedundantRows) {
  LpModel m;
  m.set_objective_sense(ObjSense::Maximize);
  const int x = m.add_variable(0, kInfinity, 1.0);
  for (int i = 0; i < 30; ++i)
    m.add_constraint({{x, 1.0}}, Sense::Le, 10.0 + i);
  LpSolution sol = solve_lp(m);
  ASSERT_TRUE(sol.optimal());
  EXPECT_NEAR(sol.objective, 10.0, 1e-8);
  // Only the tightest row carries a dual.
  double dual_sum = 0.0;
  for (double d : sol.duals) dual_sum += d;
  EXPECT_NEAR(dual_sum, 1.0, 1e-7);
}

TEST(SimplexEdge, IterationCountReported) {
  LpModel m;
  m.set_objective_sense(ObjSense::Maximize);
  const int x = m.add_variable(0, kInfinity, 3.0);
  const int y = m.add_variable(0, kInfinity, 5.0);
  m.add_constraint({{x, 1.0}}, Sense::Le, 4.0);
  m.add_constraint({{y, 2.0}}, Sense::Le, 12.0);
  m.add_constraint({{x, 3.0}, {y, 2.0}}, Sense::Le, 18.0);
  LpSolution sol = solve_lp(m);
  ASSERT_TRUE(sol.optimal());
  EXPECT_GT(sol.iterations, 0);
}

TEST(SimplexEdge, MediumRandomCoveringSolvable) {
  common::Rng rng(2024);
  LpModel m;
  const int n = 80, rows = 40;
  for (int j = 0; j < n; ++j)
    m.add_variable(0.0, 50.0, rng.uniform(0.5, 2.0));
  for (int i = 0; i < rows; ++i) {
    std::vector<Term> terms;
    for (int j = 0; j < n; ++j)
      if (rng.bernoulli(0.25)) terms.emplace_back(j, rng.uniform(0.2, 1.5));
    if (terms.empty()) terms.emplace_back(i % n, 1.0);
    m.add_constraint(std::move(terms), Sense::Ge, rng.uniform(1.0, 8.0));
  }
  LpSolution sol = solve_lp(m);
  ASSERT_TRUE(sol.optimal());
  // Spot-check primal feasibility.
  for (int i = 0; i < rows; ++i) {
    double lhs = 0.0;
    for (const auto& [j, a] : m.constraint(i).terms) lhs += a * sol.x[j];
    EXPECT_GE(lhs, m.constraint(i).rhs - 1e-6);
  }
}

TEST(SimplexEdge, MixedSenseSystem) {
  // min 2x + y st x + y >= 3, x - y = 1, x <= 5 -> x=2, y=1, obj=5.
  LpModel m;
  const int x = m.add_variable(0, 5, 2.0);
  const int y = m.add_variable(0, kInfinity, 1.0);
  m.add_constraint({{x, 1.0}, {y, 1.0}}, Sense::Ge, 3.0);
  m.add_constraint({{x, 1.0}, {y, -1.0}}, Sense::Eq, 1.0);
  LpSolution sol = solve_lp(m);
  ASSERT_TRUE(sol.optimal());
  EXPECT_NEAR(sol.objective, 5.0, 1e-8);
  EXPECT_NEAR(sol.x[x], 2.0, 1e-8);
  EXPECT_NEAR(sol.x[y], 1.0, 1e-8);
}

TEST(SimplexEdge, AllVariablesFixed) {
  LpModel m;
  const int x = m.add_variable(2, 2, 1.0);
  const int y = m.add_variable(3, 3, 1.0);
  m.add_constraint({{x, 1.0}, {y, 1.0}}, Sense::Le, 6.0);
  LpSolution sol = solve_lp(m);
  ASSERT_TRUE(sol.optimal());
  EXPECT_NEAR(sol.objective, 5.0, 1e-9);
}

TEST(SimplexEdge, FixedVariablesMakeRowInfeasible) {
  LpModel m;
  m.add_variable(2, 2, 1.0);
  m.add_constraint({{0, 1.0}}, Sense::Ge, 5.0);
  EXPECT_EQ(solve_lp(m).status, SolveStatus::Infeasible);
}

void expect_names_missing_column(const LpSolution& sol, int row, int col) {
  EXPECT_FALSE(sol.optimal());
  EXPECT_EQ(sol.error.code(), common::ErrorCode::kInvalidInput);
  const std::string msg = sol.error.message();
  EXPECT_NE(msg.find("row " + std::to_string(row)), std::string::npos) << msg;
  EXPECT_NE(msg.find("column " + std::to_string(col)), std::string::npos)
      << msg;
}

TEST(SimplexEdge, RowNamingAMissingColumnIsRejected) {
  // min x, x in [0, 10], x + x3 >= 5 where the model has no variable 3.
  // Dropping the term would solve a different LP (x = 5).
  LpModel m;
  const int x = m.add_variable(0, 10, 1.0);
  m.add_constraint({{x, 1.0}}, Sense::Le, 10.0);
  m.add_constraint({{x, 1.0}, {3, 1.0}}, Sense::Ge, 5.0);
  expect_names_missing_column(solve_lp(m), 1, 3);
  expect_names_missing_column(solve_lp_with_bounds(m, {0.0}, {10.0}), 1, 3);

  LpModel negative;
  negative.add_variable(0, 10, 1.0);
  negative.add_constraint({{-1, 1.0}, {0, 1.0}}, Sense::Ge, 5.0);
  expect_names_missing_column(solve_lp(negative), 0, -1);

  // A row may name a column before it is added, as long as it exists by
  // the time the model is solved.
  LpModel later;
  later.add_constraint({{0, 1.0}, {1, 1.0}}, Sense::Ge, 5.0);
  later.add_variable(0, 10, 1.0);
  expect_names_missing_column(solve_lp(later), 0, 1);
  later.add_variable(0, 10, 2.0);
  const LpSolution sol = solve_lp(later);
  ASSERT_TRUE(sol.optimal());
  EXPECT_NEAR(sol.x[0], 5.0, 1e-9);
  EXPECT_NEAR(sol.x[1], 0.0, 1e-9);
}

TEST(SimplexEdge, CrossedBoundsAreToleratedUpToOnePartInTenMillion) {
  // min x, x >= 0.5, with x's bounds overridden to [1 + excess, 1]: an
  // excess above the 1e-7 feasibility tolerance is inconsistent input, one
  // below it is rounding noise and solves at the lower bound.
  LpModel m;
  const int x = m.add_variable(0, 10, 1.0);
  m.add_constraint({{x, 1.0}}, Sense::Ge, 0.5);
  const LpSolution crossed = solve_lp_with_bounds(m, {1.0 + 5e-7}, {1.0});
  EXPECT_EQ(crossed.status, SolveStatus::Infeasible);
  EXPECT_EQ(crossed.error.code(), common::ErrorCode::kInvalidInput);
  const LpSolution noise = solve_lp_with_bounds(m, {1.0 + 5e-8}, {1.0});
  ASSERT_TRUE(noise.optimal()) << noise.error.to_string();
  EXPECT_EQ(noise.x[x], 1.0 + 5e-8);
}

TEST(SimplexEdge, BlandFallbackTerminatesOnDegenerateCones) {
  // Both cones open with a run of degenerate pivots long enough to switch
  // to Bland's rule.  While the leaving row was still chosen by the
  // Harris-relaxed ratio (kFeasibilityTol/|delta| at a degenerate vertex,
  // different for every row), both cycled into the iteration limit, after
  // 4,800 and 5,400 pivots, the second reporting 0 for an optimum of
  // 4.20107.
  struct Cone {
    std::uint64_t seed;
    int rows, cols;
    double density, optimum;
  };
  for (const Cone& c : {Cone{40040558, 40, 40, 0.3, 0.0},
                        Cone{50050122, 50, 40, 0.2, 4.20107306104}}) {
    common::Rng rng(c.seed);
    const LpModel m = cone_lp(rng, c.rows, c.cols, c.density);
    const LpSolution sol = solve_lp(m);
    ASSERT_TRUE(sol.optimal())
        << "seed " << c.seed << ": " << sol.error.to_string();
    EXPECT_NEAR(sol.objective, c.optimum, 1e-9) << "seed " << c.seed;
    EXPECT_LT(sol.iterations, 1000) << "seed " << c.seed;
    const check::LpCertReport rep = check::check_lp_certificate(m, sol);
    EXPECT_TRUE(rep.ok()) << "seed " << c.seed << ": " << rep.to_string();
  }
}

}  // namespace
}  // namespace mmwave::lp

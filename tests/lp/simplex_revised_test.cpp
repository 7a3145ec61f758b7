// Revised simplex against independent paths on randomized seeded sparse
// LPs: both pricing rules reach the same optimum, a warm start over
// appended columns matches a cold solve, bound overrides match the same
// bounds written into the model, and refactorizing every 2 pivots matches
// the default interval, all to 1e-9; every optimal answer must stand on
// its own as a KKT certificate.  The basis solves themselves are checked
// against a dense explicit inverse in lu_factor_test.cpp.
#include "lp/simplex.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "check/lp_certificate.h"
#include "common/rng.h"
#include "lp/model.h"

namespace mmwave::lp {
namespace {

// Random covering LP with mixed bounds: min c'x, sparse A x >= b (every
// row covered), some variables capped at 50, plus a few loose <= rows.
// Feasible (a single covering variable can satisfy any row within its cap)
// and bounded below (all costs positive), so every solve must end Optimal.
LpModel random_mixed_lp(common::Rng& rng, int rows, int cols) {
  LpModel m;
  for (int j = 0; j < cols; ++j) {
    const double ub = rng.bernoulli(0.3) ? 50.0 : kInfinity;
    m.add_variable(0.0, ub, rng.uniform(0.5, 2.0));
  }
  for (int i = 0; i < rows; ++i) {
    std::vector<Term> terms;
    for (int j = 0; j < cols; ++j)
      if (rng.bernoulli(0.3)) terms.emplace_back(j, rng.uniform(0.1, 1.0));
    if (terms.empty())
      terms.emplace_back(static_cast<int>(rng.uniform_int(0, cols - 1)),
                         rng.uniform(0.1, 1.0));
    m.add_constraint(std::move(terms), Sense::Ge, rng.uniform(1.0, 5.0));
  }
  // Loose capacity rows exercise Le slacks without binding at the optimum.
  const int le_rows = rows / 3;
  for (int i = 0; i < le_rows; ++i) {
    std::vector<Term> terms;
    for (int j = 0; j < cols; ++j)
      if (rng.bernoulli(0.3)) terms.emplace_back(j, rng.uniform(0.1, 1.0));
    if (terms.empty()) continue;
    m.add_constraint(std::move(terms), Sense::Le, 1e3);
  }
  return m;
}

void append_column(LpModel& m, common::Rng& rng) {
  const int j = m.add_variable(0.0, kInfinity, rng.uniform(0.3, 1.5));
  for (int i = 0; i < m.num_constraints(); ++i)
    if (rng.bernoulli(0.5)) m.add_term(i, j, rng.uniform(0.2, 1.2));
}

void expect_certificate_ok(const LpModel& m, const LpSolution& sol) {
  const check::LpCertReport rep = check::check_lp_certificate(m, sol);
  EXPECT_TRUE(rep.ok()) << rep.to_string();
}

LpOptions make_options(PricingRule rule) {
  LpOptions opt;
  opt.pricing = rule;
  return opt;
}

// The LU basis under both pricing rules (the only engine/pricing pairs
// left): Dantzig and steepest edge take different pivot paths and must
// find the same optimal objective to 1e-9 on every random instance, each
// with a valid certificate.  Their duals may legitimately differ under
// dual degeneracy, so the certificate is what vouches for them.
TEST(SimplexRevised, AllEnginePricingCombosAgreeOnRandomLps) {
  common::Rng rng(0xC0FFEE);
  for (int trial = 0; trial < 25; ++trial) {
    const int rows = static_cast<int>(rng.uniform_int(3, 14));
    const int cols = rows + static_cast<int>(rng.uniform_int(1, 12));
    const LpModel m = random_mixed_lp(rng, rows, cols);

    const LpSolution dantzig = solve_lp(m, make_options(PricingRule::kDantzig));
    const LpSolution steepest =
        solve_lp(m, make_options(PricingRule::kSteepestEdge));
    ASSERT_TRUE(dantzig.optimal()) << "trial " << trial;
    ASSERT_TRUE(steepest.optimal()) << "trial " << trial;
    EXPECT_NEAR(steepest.objective, dantzig.objective,
                1e-9 * (1.0 + std::abs(dantzig.objective)))
        << "trial " << trial;
    expect_certificate_ok(m, dantzig);
    expect_certificate_ok(m, steepest);
  }
}

// Appended-column warm starts: the warm solve must match a cold Dantzig
// solve of the grown model to 1e-9 and carry a valid certificate, under
// both pricing rules.
TEST(SimplexRevised, WarmAppendMatchesColdSolve) {
  for (const PricingRule rule :
       {PricingRule::kDantzig, PricingRule::kSteepestEdge}) {
    common::Rng rng(0x5EED5 + static_cast<std::uint64_t>(rule));
    for (int trial = 0; trial < 10; ++trial) {
      const int rows = static_cast<int>(rng.uniform_int(4, 11));
      const int cols = rows + static_cast<int>(rng.uniform_int(1, 8));
      LpModel m = random_mixed_lp(rng, rows, cols);

      WarmStart warm;
      LpSolution sol = solve_lp(m, make_options(rule), &warm);
      ASSERT_TRUE(sol.optimal()) << "trial " << trial;
      ASSERT_TRUE(warm.valid);

      for (int growth = 0; growth < 4; ++growth) {
        append_column(m, rng);
        const LpSolution cold =
            solve_lp(m, make_options(PricingRule::kDantzig));
        sol = solve_lp(m, make_options(rule), &warm);
        ASSERT_TRUE(cold.optimal());
        EXPECT_TRUE(sol.warm_started)
            << "trial " << trial << " growth " << growth;
        ASSERT_TRUE(sol.optimal())
            << "trial " << trial << " growth " << growth << " rule "
            << to_string(rule);
        EXPECT_NEAR(sol.objective, cold.objective,
                    1e-9 * (1.0 + std::abs(cold.objective)))
            << "trial " << trial << " growth " << growth << " rule "
            << to_string(rule);
        expect_certificate_ok(m, sol);
      }
    }
  }
}

// solve_lp_with_bounds (the branch & bound entry point) must answer
// exactly what a solve of the model with the same bounds written into it
// answers, and that answer must be a valid certificate for the bounded
// model.
TEST(SimplexRevised, BoundsOverrideMatchesBoundsInModel) {
  common::Rng rng(0xB0B5);
  for (int trial = 0; trial < 10; ++trial) {
    const int rows = static_cast<int>(rng.uniform_int(3, 9));
    const int cols = rows + static_cast<int>(rng.uniform_int(1, 7));
    const LpModel m = random_mixed_lp(rng, rows, cols);
    std::vector<double> lb(cols, 0.0), ub(cols, kInfinity);
    for (int j = 0; j < cols; ++j) {
      if (rng.bernoulli(0.3)) ub[j] = rng.uniform(5.0, 20.0);
      if (rng.bernoulli(0.2)) lb[j] = rng.uniform(0.0, 1.0);
    }
    LpModel bounded = m;
    for (int j = 0; j < cols; ++j) {
      bounded.variable(j).lb = lb[j];
      bounded.variable(j).ub = ub[j];
    }
    const LpSolution in_model = solve_lp(bounded);
    const LpSolution overridden = solve_lp_with_bounds(m, lb, ub);
    ASSERT_EQ(overridden.status, in_model.status) << "trial " << trial;
    if (!in_model.optimal()) continue;
    EXPECT_NEAR(overridden.objective, in_model.objective,
                1e-9 * (1.0 + std::abs(in_model.objective)))
        << "trial " << trial;
    expect_certificate_ok(bounded, overridden);
  }
}

// The work counters must reflect what actually ran: FTRAN at least once per
// pivot, the pricing-rule name matching the option, and steepest-edge
// paying its extra BTRAN per pivot.
TEST(SimplexRevised, StatsReportEngineWork) {
  common::Rng rng(0x57A7);
  const LpModel m = random_mixed_lp(rng, 10, 18);

  const LpSolution dantzig = solve_lp(m, make_options(PricingRule::kDantzig));
  ASSERT_TRUE(dantzig.optimal());
  EXPECT_STREQ(dantzig.stats.pricing_rule, "dantzig");
  EXPECT_GE(dantzig.stats.ftran_calls, dantzig.iterations);
  EXPECT_GT(dantzig.stats.btran_calls, 0);

  const LpSolution steepest =
      solve_lp(m, make_options(PricingRule::kSteepestEdge));
  ASSERT_TRUE(steepest.optimal());
  EXPECT_STREQ(steepest.stats.pricing_rule, "steepest-edge");
  // One BTRAN for duals per pricing pass plus one per basis-changing pivot.
  EXPECT_GT(steepest.stats.btran_calls, steepest.iterations);
}

// The deadline clock is read only every few pivots, but the first read is
// at pivot 0, so an already-expired deadline preempts the solve before it
// pivots at all.
TEST(SimplexRevised, ExpiredDeadlineFiresDespiteStride) {
  common::Rng rng(0xDEAD);
  const LpModel m = random_mixed_lp(rng, 8, 14);
  LpOptions opt;
  opt.time_limit_sec = 1e-12;
  const LpSolution sol = solve_lp(m, opt);
  EXPECT_EQ(sol.status, SolveStatus::IterationLimit);
  EXPECT_EQ(sol.error.code(), common::ErrorCode::kLimitHit);
  EXPECT_EQ(sol.iterations, 0);
}

// Tiny refactor intervals force the eta file to be rebuilt constantly;
// the answer must match the default interval's and the counter must show
// the refactorizations.
TEST(SimplexRevised, FrequentRefactorizationIsLossless) {
  common::Rng rng(0xFACF);
  const LpModel m = random_mixed_lp(rng, 10, 16);
  const LpSolution ref = solve_lp(m);
  ASSERT_TRUE(ref.optimal());

  LpOptions opt;
  opt.refactor_interval = 2;
  const LpSolution sol = solve_lp(m, opt);
  ASSERT_TRUE(sol.optimal());
  EXPECT_NEAR(sol.objective, ref.objective,
              1e-9 * (1.0 + std::abs(ref.objective)));
  EXPECT_GT(sol.stats.refactorizations, ref.stats.refactorizations);
  expect_certificate_ok(m, sol);
}

}  // namespace
}  // namespace mmwave::lp

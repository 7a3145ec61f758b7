// The slack crash start of a cold solve: every row whose slack can absorb
// the row's residual starts with that slack basic, and only the remaining
// rows get a phase-1 artificial.  A model whose slack basis is feasible
// (the pricing MILP's packing relaxations) skips phase 1 entirely; every
// other model still runs phase 1, on exactly its artificial rows.  Each
// answer is checked against an independent path to 1e-9 (the other
// pricing rule, or the bounds written into the model) and by its KKT
// certificate.
#include "lp/simplex.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "check/lp_certificate.h"
#include "common/rng.h"
#include "lp/model.h"

namespace mmwave::lp {
namespace {

LpOptions rule(PricingRule pricing) {
  LpOptions opt;
  opt.pricing = pricing;
  return opt;
}

void expect_certificate_ok(const LpModel& m, const LpSolution& sol) {
  const check::LpCertReport rep = check::check_lp_certificate(m, sol);
  EXPECT_TRUE(rep.ok()) << rep.to_string();
}

void expect_same_objective(const LpSolution& ref, const LpSolution& sol,
                           int trial) {
  ASSERT_TRUE(ref.optimal()) << "trial " << trial;
  ASSERT_TRUE(sol.optimal()) << "trial " << trial;
  EXPECT_NEAR(sol.objective, ref.objective,
              1e-9 * (1.0 + std::abs(ref.objective)))
      << "trial " << trial;
}

// The pricing-MILP relaxation shape: maximize lambda'x over binaries
// relaxed to [0, 1] and powers in [0, pmax], with big-M activation rows
// M x - g P + sum h P' <= M - rho, coupling rows P - pmax sum x <= 0 and
// one-choice rows sum x <= 1.  Every rhs is >= 0 at x = P = 0, so the
// slack basis is feasible.
LpModel random_packing_lp(common::Rng& rng, int links) {
  LpModel m;
  m.set_objective_sense(ObjSense::Maximize);
  const double pmax = 1.0;
  std::vector<int> x(links), p(links);
  for (int l = 0; l < links; ++l) {
    x[l] = m.add_variable(0.0, 1.0, rng.uniform(0.1, 2.0));
    p[l] = m.add_variable(0.0, pmax, 0.0);
  }
  for (int l = 0; l < links; ++l) {
    const double rho = rng.uniform(0.05, 0.2);
    std::vector<Term> terms{{x[l], 0.0}, {p[l], -rng.uniform(0.5, 2.0)}};
    double big_m = rho;
    for (int o = 0; o < links; ++o) {
      if (o == l || !rng.bernoulli(0.6)) continue;
      const double h = rng.uniform(0.05, 0.5);
      terms.emplace_back(p[o], h);
      big_m += h * pmax;
    }
    terms[0].second = big_m;
    m.add_constraint(std::move(terms), Sense::Le, big_m - rho);
    m.add_constraint({{p[l], 1.0}, {x[l], -pmax}}, Sense::Le, 0.0);
  }
  for (int l = 0; l + 1 < links; l += 2)
    m.add_constraint({{x[l], 1.0}, {x[l + 1], 1.0}}, Sense::Le, 1.0);
  return m;
}

TEST(SimplexCrash, AllSlackFeasibleModelSkipsPhase1) {
  common::Rng rng(0xC4A5);
  for (int trial = 0; trial < 20; ++trial) {
    const LpModel m =
        random_packing_lp(rng, static_cast<int>(rng.uniform_int(2, 9)));
    const LpSolution dantzig = solve_lp(m, rule(PricingRule::kDantzig));
    const LpSolution steepest = solve_lp(m, rule(PricingRule::kSteepestEdge));
    EXPECT_EQ(dantzig.stats.phase1_pivots, 0) << "trial " << trial;
    EXPECT_EQ(steepest.stats.phase1_pivots, 0) << "trial " << trial;
    EXPECT_GT(dantzig.iterations, 0) << "trial " << trial;
    expect_same_objective(dantzig, steepest, trial);
    expect_certificate_ok(m, dantzig);
    expect_certificate_ok(m, steepest);
  }
}

// Diagonal rows make the phase-1 work countable: each artificial row has a
// variable of its own, so clearing it costs exactly one pivot.  Only the
// >= rows with b > 0 and the = rows with b != 0 need an artificial; the
// loose <= rows and the >= / = rows a resting slack already satisfies
// start with their slack basic and cost phase 1 nothing.
TEST(SimplexCrash, MixedModelRunsPhase1OnArtificialRowsOnly) {
  common::Rng rng(0x3D1);
  for (int trial = 0; trial < 10; ++trial) {
    const int ge_rows = static_cast<int>(rng.uniform_int(1, 5));
    const int eq_rows = static_cast<int>(rng.uniform_int(1, 4));
    LpModel m;
    std::vector<int> vars;
    for (int j = 0; j < ge_rows + eq_rows; ++j)
      vars.push_back(m.add_variable(0.0, 100.0, rng.uniform(0.5, 2.0)));
    for (int i = 0; i < ge_rows; ++i)
      m.add_constraint({{vars[i], 1.0}}, Sense::Ge, rng.uniform(1.0, 10.0));
    for (int i = 0; i < eq_rows; ++i) {
      m.add_constraint({{vars[ge_rows + i], 1.0}}, Sense::Eq,
                       rng.uniform(1.0, 10.0));
    }
    // Rows the crash covers with their slack.
    for (int i = 0; i + 1 < static_cast<int>(vars.size()); ++i)
      m.add_constraint({{vars[i], 1.0}, {vars[i + 1], 1.0}}, Sense::Le, 500.0);
    m.add_constraint({{vars[0], 1.0}}, Sense::Ge, 0.0);
    m.add_constraint({{vars[0], 1.0}, {vars.back(), -1.0}}, Sense::Ge, -50.0);

    const LpSolution dantzig = solve_lp(m, rule(PricingRule::kDantzig));
    const LpSolution steepest = solve_lp(m, rule(PricingRule::kSteepestEdge));
    EXPECT_EQ(dantzig.stats.phase1_pivots, ge_rows + eq_rows)
        << "trial " << trial;
    EXPECT_EQ(steepest.stats.phase1_pivots, ge_rows + eq_rows)
        << "trial " << trial;
    expect_same_objective(dantzig, steepest, trial);
    expect_certificate_ok(m, dantzig);
    expect_certificate_ok(m, steepest);
  }
}

TEST(SimplexCrash, InfeasibleModelIsStillInfeasible) {
  for (const PricingRule pricing :
       {PricingRule::kDantzig, PricingRule::kSteepestEdge}) {
    // x <= 1 starts on its slack; x >= 2 needs an artificial that phase 1
    // cannot drive out.
    LpModel ge;
    const int x = ge.add_variable(0.0, kInfinity, 1.0);
    ge.add_constraint({{x, 1.0}}, Sense::Le, 1.0);
    ge.add_constraint({{x, 1.0}}, Sense::Ge, 2.0);
    const LpSolution a = solve_lp(ge, rule(pricing));
    EXPECT_EQ(a.status, SolveStatus::Infeasible) << to_string(pricing);
    EXPECT_EQ(a.error.code(), common::ErrorCode::kInfeasible);

    // An equality the packing row beside it rules out.
    LpModel eq;
    const int y = eq.add_variable(0.0, kInfinity, 1.0);
    const int z = eq.add_variable(0.0, kInfinity, 1.0);
    eq.add_constraint({{y, 1.0}, {z, 1.0}}, Sense::Le, 3.0);
    eq.add_constraint({{y, 1.0}, {z, 2.0}}, Sense::Eq, 7.0);
    const LpSolution b = solve_lp(eq, rule(pricing));
    EXPECT_EQ(b.status, SolveStatus::Infeasible) << to_string(pricing);
  }
}

// Branch & bound fixes binaries through bound overrides.  A binary fixed
// at 1 rests at its upper bound, so its big-M row's residual turns
// negative and that row (alone) needs an artificial again.  The override
// must answer what the model with the binary fixed in it answers.
TEST(SimplexCrash, BoundOverrideFixingABinaryMatchesBoundsInModel) {
  common::Rng rng(0xF1ED);
  for (int trial = 0; trial < 15; ++trial) {
    const int links = static_cast<int>(rng.uniform_int(2, 8));
    const LpModel m = random_packing_lp(rng, links);
    std::vector<double> lb(m.num_variables()), ub(m.num_variables());
    for (int j = 0; j < m.num_variables(); ++j) {
      lb[j] = m.variable(j).lb;
      ub[j] = m.variable(j).ub;
    }
    const int fixed = 2 * static_cast<int>(rng.uniform_int(0, links - 1));
    lb[fixed] = 1.0;
    LpModel fixed_in_model = m;
    fixed_in_model.variable(fixed).lb = 1.0;
    const LpSolution in_model = solve_lp(fixed_in_model);
    const LpSolution overridden = solve_lp_with_bounds(m, lb, ub);
    ASSERT_EQ(overridden.status, in_model.status) << "trial " << trial;
    EXPECT_GT(overridden.stats.phase1_pivots, 0) << "trial " << trial;
    if (!in_model.optimal()) continue;
    expect_same_objective(in_model, overridden, trial);
    expect_certificate_ok(fixed_in_model, overridden);
    EXPECT_NEAR(overridden.x[fixed], 1.0, 1e-9) << "trial " << trial;
  }
}

}  // namespace
}  // namespace mmwave::lp

// Recorded LP answers: a seeded battery of solves whose results are pinned
// bit for bit.  Each case folds the status, the objective, x, the duals,
// the pivot counts and the basis-engine counters of its solves into one
// FNV-1a digest, recorded by running this file against the solver before
// its computational form became one flat column copy per solve; the three
// cone rows were re-recorded when Bland's rule began choosing its leaving
// row by exact ratio.  The battery covers <=, >= and = rows; free, boxed,
// lower-bounded and fixed variables; explicit zero coefficients and a
// (row, column) pair repeated within a row; both objective senses and both
// pricing rules; branch-and-bound style bound overrides; master-style warm
// starts over appended columns; and degenerate cone LPs whose stall count
// reaches the Bland switch.  A change that moves any value here changes
// what the LP layer returns, and must re-record the table and say why.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "lp/model.h"
#include "lp/simplex.h"
#include "support/cone_lp.h"

namespace mmwave::lp {
namespace {

struct Digest {
  std::uint64_t h = 14695981039346656037ULL;
  void add(std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xff;
      h *= 1099511628211ULL;
    }
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  void add(std::int64_t v) { add(static_cast<std::uint64_t>(v)); }
};

/// What one case's solves returned: a digest over every value and the
/// total pivot count (kept separately so a mismatch says whether the
/// pivot path moved).
struct Answer {
  std::uint64_t digest = 0;
  std::int64_t pivots = 0;
};

struct Recorder {
  Digest d;
  std::int64_t pivots = 0;
  void add(const LpSolution& sol) {
    d.add(static_cast<std::int64_t>(sol.status));
    d.add(sol.objective);
    d.add(static_cast<std::int64_t>(sol.x.size()));
    for (const double v : sol.x) d.add(v);
    d.add(static_cast<std::int64_t>(sol.duals.size()));
    for (const double v : sol.duals) d.add(v);
    d.add(sol.iterations);
    d.add(static_cast<std::int64_t>(sol.warm_started));
    d.add(sol.stats.phase1_pivots);
    d.add(sol.stats.ftran_calls);
    d.add(sol.stats.btran_calls);
    d.add(static_cast<std::int64_t>(sol.stats.refactorizations));
    pivots += sol.iterations;
  }
  Answer answer() const { return {d.h, pivots}; }
};

/// A feasible, bounded LP with every row sense and variable kind.  Rows are
/// built around a point x0 inside the bounds (<= rows above A x0, >= rows
/// below it, = rows through it).  Free variables get a <= and a >= row
/// around x0, and lower-bounded variables a cost that the objective sense
/// cannot ride to infinity.  About one row in four carries an explicit
/// zero coefficient and one in four names a column twice (two parts that
/// sum to its coefficient).
LpModel mixed_lp(common::Rng& rng, int rows, int cols, ObjSense sense) {
  LpModel m;
  m.set_objective_sense(sense);
  const double sign = sense == ObjSense::Minimize ? 1.0 : -1.0;
  std::vector<double> x0(cols);
  std::vector<int> free_vars;
  for (int j = 0; j < cols; ++j) {
    const double kind = rng.uniform();
    const double lb = rng.uniform(-2.0, 1.0);
    if (kind < 0.45) {  // boxed
      const double ub = lb + rng.uniform(0.5, 4.0);
      m.add_variable(lb, ub, rng.uniform(-2.0, 2.0));
      x0[j] = rng.uniform(lb, ub);
    } else if (kind < 0.7) {  // lower-bounded
      m.add_variable(lb, kInfinity, sign * rng.uniform(0.1, 2.0));
      x0[j] = lb + rng.uniform(0.0, 3.0);
    } else if (kind < 0.85) {  // free
      m.add_variable(-kInfinity, kInfinity, rng.uniform(-1.0, 1.0));
      x0[j] = rng.uniform(-3.0, 3.0);
      free_vars.push_back(j);
    } else {  // fixed
      m.add_variable(lb, lb, rng.uniform(-2.0, 2.0));
      x0[j] = lb;
    }
  }
  for (int i = 0; i < rows; ++i) {
    std::vector<Term> terms;
    double ax = 0.0;
    for (int j = 0; j < cols; ++j) {
      if (!rng.bernoulli(0.3)) continue;
      const double a = rng.uniform(-3.0, 3.0);
      terms.emplace_back(j, a);
      ax += a * x0[j];
    }
    if (terms.empty()) {
      const int j = static_cast<int>(rng.uniform_int(0, cols - 1));
      terms.emplace_back(j, 1.0);
      ax += x0[j];
    }
    if (rng.bernoulli(0.25)) {
      terms.emplace_back(static_cast<int>(rng.uniform_int(0, cols - 1)), 0.0);
    }
    if (rng.bernoulli(0.25)) {
      Term& t = terms[rng.uniform_index(terms.size())];
      const double part = rng.uniform(-1.0, 1.0);
      const int j = t.first;
      t.second -= part;
      terms.emplace_back(j, part);
    }
    const double kind = rng.uniform();
    if (kind < 0.4) {
      m.add_constraint(std::move(terms), Sense::Le, ax + rng.uniform(0.0, 1.0));
    } else if (kind < 0.8) {
      m.add_constraint(std::move(terms), Sense::Ge, ax - rng.uniform(0.0, 1.0));
    } else {
      m.add_constraint(std::move(terms), Sense::Eq, ax);
    }
  }
  for (const int j : free_vars) {
    m.add_constraint({{j, 1.0}}, Sense::Le, x0[j] + rng.uniform(0.5, 2.0));
    m.add_constraint({{j, 1.0}}, Sense::Ge, x0[j] - rng.uniform(0.5, 2.0));
  }
  return m;
}

/// The CG master's shape: min 1'x over x >= 0 subject to covering rows
/// A x >= b, with columns appended one at a time through add_term.
LpModel covering_lp(common::Rng& rng, int rows, int cols) {
  LpModel m;
  for (int i = 0; i < rows; ++i)
    m.add_constraint({}, Sense::Ge, rng.uniform(1.0, 5.0));
  for (int j = 0; j < cols; ++j) {
    const int var = m.add_variable(0.0, kInfinity, 1.0);
    bool any = false;
    for (int i = 0; i < rows; ++i) {
      if (!rng.bernoulli(0.35)) continue;
      m.add_term(i, var, rng.uniform(0.1, 1.5));
      any = true;
    }
    if (!any) {
      m.add_term(static_cast<int>(rng.uniform_int(0, rows - 1)), var, 1.0);
    }
  }
  return m;
}

Answer solve_mixed(std::uint64_t seed, int rows, int cols, ObjSense sense,
                   const LpOptions& options) {
  common::Rng rng(seed);
  const LpModel m = mixed_lp(rng, rows, cols, sense);
  Recorder r;
  r.add(solve_lp(m, options));
  return r.answer();
}

/// One model, then a chain of branch-and-bound style overrides: each step
/// rounds one variable of the previous answer down or up and re-solves
/// from scratch with solve_lp_with_bounds.
Answer solve_overrides(std::uint64_t seed) {
  common::Rng rng(seed);
  const LpModel m = mixed_lp(rng, 18, 26, ObjSense::Minimize);
  std::vector<double> lb(m.num_variables()), ub(m.num_variables());
  for (int j = 0; j < m.num_variables(); ++j) {
    lb[j] = m.variable(j).lb;
    ub[j] = m.variable(j).ub;
  }
  Recorder r;
  LpSolution sol = solve_lp_with_bounds(m, lb, ub);
  r.add(sol);
  for (int step = 0; step < 8 && sol.optimal(); ++step) {
    const int j = static_cast<int>(rng.uniform_int(0, m.num_variables() - 1));
    if (rng.bernoulli(0.5)) {
      ub[j] = std::max(lb[j], std::floor(sol.x[j]));
    } else {
      lb[j] = std::min(ub[j], std::ceil(sol.x[j]));
    }
    sol = solve_lp_with_bounds(m, lb, ub);
    r.add(sol);
  }
  return r.answer();
}

/// The master's growth pattern: solve, append a column, re-solve from the
/// exported basis, twelve times.
Answer solve_warm_appends(std::uint64_t seed) {
  common::Rng rng(seed);
  LpModel m = covering_lp(rng, 14, 10);
  WarmStart warm;
  Recorder r;
  r.add(solve_lp(m, {}, &warm));
  for (int step = 0; step < 12; ++step) {
    const int var = m.add_variable(0.0, kInfinity, rng.uniform(0.4, 1.2));
    for (int i = 0; i < m.num_constraints(); ++i) {
      if (rng.bernoulli(0.5)) m.add_term(i, var, rng.uniform(0.2, 2.0));
    }
    r.add(solve_lp(m, {}, &warm));
  }
  return r.answer();
}

Answer solve_cone(std::uint64_t seed, int rows, int cols, double density) {
  common::Rng rng(seed);
  const LpModel m = cone_lp(rng, rows, cols, density);
  Recorder r;
  r.add(solve_lp(m));
  return r.answer();
}

LpOptions steepest_edge() {
  LpOptions o;
  o.pricing = PricingRule::kSteepestEdge;
  return o;
}

LpOptions short_refactor_interval() {
  LpOptions o;
  o.refactor_interval = 5;
  return o;
}

struct Case {
  std::string name;
  std::function<Answer()> solve;
  std::uint64_t digest;
  std::int64_t pivots;
};

TEST(SimplexRecorded, AnswersMatchRecordedValues) {
  const ObjSense kMin = ObjSense::Minimize;
  const ObjSense kMax = ObjSense::Maximize;
  const std::vector<Case> cases = {
      {"mixed 8x12 min", [&] { return solve_mixed(11, 8, 12, kMin, {}); },
       0x6f89c8adcdcfb038ULL, 13},
      {"mixed 20x30 min", [&] { return solve_mixed(12, 20, 30, kMin, {}); },
       0xf6634dc53d5e119dULL, 30},
      {"mixed 40x60 min", [&] { return solve_mixed(13, 40, 60, kMin, {}); },
       0xf9f9dcae518fc547ULL, 162},
      {"mixed 15x20 max", [&] { return solve_mixed(14, 15, 20, kMax, {}); },
       0xc43a40d2f2ab78feULL, 20},
      {"mixed 30x45 max", [&] { return solve_mixed(15, 30, 45, kMax, {}); },
       0xad6a6a3aa6aa0081ULL, 83},
      {"mixed 30x45 min, steepest edge",
       [&] { return solve_mixed(17, 30, 45, kMin, steepest_edge()); },
       0xde4d8d9d50e59203ULL, 74},
      {"mixed 40x60 max, refactorize every 5 pivots",
       [&] { return solve_mixed(18, 40, 60, kMax, short_refactor_interval()); },
       0xe4b097f616747968ULL, 160},
      {"bound overrides, 9 solves, last infeasible",
       [&] { return solve_overrides(21); }, 0xca46628e0af0af3eULL, 241},
      {"bound overrides, 9 solves", [&] { return solve_overrides(26); },
       0xb7f5b29eb5cee13dULL, 336},
      {"warm appends a", [&] { return solve_warm_appends(31); },
       0xc227493f64ce829fULL, 50},
      {"warm appends b", [&] { return solve_warm_appends(32); },
       0x798eaa6e4e4ae06fULL, 45},
      {"cone 30x30, one Bland switch",
       [&] { return solve_cone(32636, 30, 30, 0.2); }, 0x24f1b66ba9949c97ULL,
       110},
      {"cone 40x40, one Bland switch",
       [&] { return solve_cone(25037, 40, 40, 0.3); }, 0xddb82d39b06bacd9ULL,
       94},
      {"cone 70x40, one Bland switch",
       [&] { return solve_cone(10129, 70, 40, 0.2); }, 0x1e310c8914de1679ULL,
       182},
  };
  for (const Case& c : cases) {
    const Answer a = c.solve();
    EXPECT_EQ(a.pivots, c.pivots) << c.name;
    EXPECT_EQ(a.digest, c.digest)
        << c.name << ": digest 0x" << std::hex << a.digest;
  }
}

}  // namespace
}  // namespace mmwave::lp

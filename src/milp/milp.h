// Mixed-integer linear programming by LP-relaxation branch & bound.
//
// This stands in for the commercial MIP solvers (Gurobi / MATLAB intlinprog)
// the paper uses for the pricing sub-problem.  Features:
//   * best-first node selection (priority queue on LP bound) — the same
//     strategy as intlinprog's default branch & bound;
//   * most-fractional branching with objective-magnitude tie-break;
//   * rounding heuristic at every node plus caller-supplied warm starts, so
//     a good incumbent (from the greedy pricing heuristic) prunes early;
//   * node / wall-time limits with a *valid dual bound* on exit — truncated
//     pricing still yields correct Theorem-1 lower bounds;
//   * optional target objective: stop as soon as the incumbent is good
//     enough (column generation only needs *an* improving column until the
//     final optimality certificate);
//   * optional cutoff: stop as soon as the best open bound proves that no
//     point beats the cutoff (the pricing sub-problem only has to decide
//     whether some schedule has Psi > 1 + eps).  The verdict then rests on
//     LP bound values alone, which every optimal vertex of a node LP
//     shares, so it does not depend on which vertex the simplex returns.
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/status.h"
#include "lp/model.h"
#include "lp/simplex.h"

namespace mmwave::milp {

enum class VarType : std::uint8_t { Continuous, Integer, Binary };

class MilpModel {
 public:
  int add_variable(double lb, double ub, double cost, VarType type,
                   std::string name = {}) {
    if (type == VarType::Binary) {
      lb = std::max(lb, 0.0);
      ub = std::min(ub, 1.0);
    }
    const int j = lp_.add_variable(lb, ub, cost, std::move(name));
    types_.push_back(type);
    return j;
  }

  int add_constraint(std::vector<lp::Term> terms, lp::Sense sense, double rhs,
                     std::string name = {}) {
    return lp_.add_constraint(std::move(terms), sense, rhs, std::move(name));
  }

  void set_objective_sense(lp::ObjSense sense) {
    lp_.set_objective_sense(sense);
  }
  lp::ObjSense objective_sense() const { return lp_.objective_sense(); }

  int num_variables() const { return lp_.num_variables(); }
  int num_constraints() const { return lp_.num_constraints(); }
  VarType type(int j) const { return types_[j]; }

  /// Mutable variable access for model reuse across solves: the cached
  /// pricing skeleton rewrites objective coefficients and activation bounds
  /// between calls instead of rebuilding the constraint matrix.
  lp::Variable& variable(int j) { return lp_.variable(j); }
  const lp::Variable& variable(int j) const { return lp_.variable(j); }
  bool is_integral(int j) const { return types_[j] != VarType::Continuous; }

  const lp::LpModel& lp() const { return lp_; }

 private:
  lp::LpModel lp_;
  std::vector<VarType> types_;
};

enum class MilpStatus {
  Optimal,
  Feasible,     ///< limit hit; incumbent + valid bound reported
  TargetReached,///< stopped early because the incumbent met target_objective
  Cutoff,       ///< best open bound proved nothing beats MilpOptions::cutoff
  Infeasible,
  NoSolution,   ///< limit hit before any incumbent was found
  Unbounded,
  Error,
};

const char* to_string(MilpStatus status);

struct MilpOptions {
  std::int64_t max_nodes = 200000;
  double time_limit_sec = 60.0;
  /// If finite: stop as soon as the incumbent objective reaches this value
  /// (>= for Maximize models, <= for Minimize).
  double target_objective = std::nan("");
  /// If finite: stop as soon as the best open bound is no better than this
  /// value (<= for Maximize models, >= for Minimize) while the incumbent
  /// does not beat it either, and report Cutoff with that bound as
  /// best_bound.  A model whose optimum beats the cutoff solves exactly as
  /// without one.
  double cutoff = std::nan("");
  /// How time_limit_sec is enforced.  false (default): advisory — checked
  /// between branch-and-bound nodes only, so an individual node LP (in
  /// particular the root relaxation) always runs to completion and a
  /// root-integral model still certifies optimality on a slow machine.
  /// true: the remaining budget is pushed into every node LP as a per-pivot
  /// wall-clock limit, so a single call can never overrun the budget —
  /// the anytime mode column generation uses under a real deadline.
  bool hard_time_limit = false;
  lp::LpOptions lp_options;
};

struct MilpSolution {
  MilpStatus status = MilpStatus::Error;
  /// Incumbent objective in the model's own sense; meaningful when
  /// has_solution().
  double objective = 0.0;
  /// Valid dual bound in the model's own sense: bound >= objective for
  /// Maximize models, bound <= objective for Minimize models.
  double best_bound = 0.0;
  std::vector<double> x;
  std::int64_t nodes = 0;
  /// Simplex pivots summed over every node LP, the root included.
  std::int64_t lp_pivots = 0;
  /// Structured failure detail: Ok on Optimal/TargetReached/Cutoff,
  /// kLimitHit on truncated exits (Feasible/NoSolution — the reported
  /// best_bound is still valid), kNumericalBreakdown when the root LP
  /// failed.
  common::Status error;

  /// True when `x` holds an incumbent.  A Cutoff exit has one unless the
  /// search stopped before any feasible point was known.
  bool has_solution() const {
    return status == MilpStatus::Optimal || status == MilpStatus::Feasible ||
           status == MilpStatus::TargetReached ||
           (status == MilpStatus::Cutoff && !x.empty());
  }
  /// Relative optimality gap; 0 when solved to optimality.
  double gap() const {
    if (!has_solution()) return std::numeric_limits<double>::infinity();
    return std::abs(objective - best_bound) /
           std::max(1.0, std::abs(objective));
  }
};

/// Solves the model.  `warm_start`, if non-null, must be a feasible point
/// (it is verified; an infeasible warm start is ignored with a warning).
MilpSolution solve_milp(const MilpModel& model, const MilpOptions& options = {},
                        const std::vector<double>* warm_start = nullptr);

/// Checks `x` against all constraints, bounds, and integrality of the model.
bool is_feasible_point(const MilpModel& model, const std::vector<double>& x,
                       double tol = 1e-6);

}  // namespace mmwave::milp

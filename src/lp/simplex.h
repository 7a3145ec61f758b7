// Bounded-variable two-phase revised simplex.
//
// Solves   min/max c'x   s.t.  A x {<=,=,>=} b,   l <= x <= u
// exactly (to tolerance), returning the primal solution and the simplex
// multipliers (dual values), which drive the column-generation pricing step.
//
// Implementation notes:
//  * Computational form: every row gets a slack (bounds encode the sense).
//    Each solve copies the model's rows once into a flat column-major
//    matrix (a counting sort, O(nnz + n + m)); slack and artificial
//    columns are implicit unit columns.  Every column a row term names
//    must exist: a term naming a missing column is rejected with
//    kInvalidInput instead of being solved as some other LP.
//    A cold solve crashes the starting basis: each row's slack is basic
//    when it can absorb the row's residual within its bounds, and only the
//    remaining rows get a signed artificial.  Phase 1 minimizes the sum of
//    those artificials and is skipped when the slack basis is feasible,
//    as in the pricing MILP's relaxations (all <= rows with b >= 0).
//  * Bounds are handled by the upper-bounded simplex technique (nonbasic
//    variables rest at either bound; the ratio test allows bound flips), so
//    binaries and power caps never cost extra rows.
//  * Revised simplex: the basis is held as a sparse LU factorization
//    (lp::LuFactor) with product-form eta updates per pivot and periodic
//    refactorization; every basis solve is an FTRAN or BTRAN through it.
//  * Pluggable pricing (lp::Pricing): Dantzig (default) or steepest-edge
//    with incremental reference weights, with a Bland's-rule fallback once
//    a run of degenerate pivots is detected: the lowest-index improving
//    column enters and, among the rows that tie the minimum exact ratio,
//    the lowest basic index leaves, which guarantees termination under
//    either rule.
//
// Dual sign convention (Minimize): a >= row has dual >= 0, a <= row has
// dual <= 0, an = row is unconstrained in sign.  For Maximize models the
// reported duals are for the *maximization* problem (>= row dual <= 0 etc.),
// so user-level duality c'x* = y'b (+ bound terms) always holds as written.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "lp/model.h"
#include "lp/pricing.h"

namespace mmwave::lp {

enum class SolveStatus {
  Optimal,
  Infeasible,
  Unbounded,
  IterationLimit,
  NumericalError,
};

const char* to_string(SolveStatus status);

struct LpOptions {
  /// 0 means "choose from problem size".
  std::int64_t max_iterations = 0;
  /// Wall-clock budget for the solve, seconds (0 disables).  Checked every
  /// 16 pivots, starting at pivot 0; on expiry the solve returns
  /// IterationLimit with a kLimitHit error.  This is what lets a deadline
  /// preempt a long LP mid-solve instead of waiting out the iteration cap.
  double time_limit_sec = 0.0;
  /// Refactorize the basis from scratch every this many pivots, which
  /// bounds the eta file and recomputes the basic values.
  int refactor_interval = 128;
  /// Entering-variable pricing rule (see lp/pricing.h).
  PricingRule pricing = PricingRule::kDantzig;
};

/// Basis-engine work counters of one solve (surfaced through CgProfile and
/// `mmwave_cli solve --profile`).
struct LpStats {
  std::int64_t ftran_calls = 0;
  std::int64_t btran_calls = 0;
  /// Full basis (re)factorizations, including the warm-start install.
  int refactorizations = 0;
  /// Pivots spent in phase 1 (0 when the crash basis was already feasible
  /// or the solve resumed from a WarmStart).
  std::int64_t phase1_pivots = 0;
  /// Name of the pricing rule that ran ("dantzig" | "steepest-edge").
  const char* pricing_rule = "";
};

struct LpSolution {
  SolveStatus status = SolveStatus::NumericalError;
  /// Objective in the model's own sense (max problems report the max value).
  double objective = 0.0;
  std::vector<double> x;
  /// One dual per constraint; see sign convention above.
  std::vector<double> duals;
  std::int64_t iterations = 0;
  /// True when this solve resumed from a caller-supplied WarmStart basis
  /// (phase 1 was skipped entirely).
  bool warm_started = false;
  /// Structured failure detail: Ok on Optimal, otherwise the error code
  /// (kNumericalBreakdown, kLimitHit, kInfeasible, kUnbounded) plus a
  /// message saying where the solve gave out.  A malformed model reports
  /// kInvalidInput: bounds with lb > ub (status Infeasible), or a row term
  /// naming a column the model does not have (status NumericalError; the
  /// message names the row and the column).
  common::Status error;
  /// Basis-engine work counters (FTRAN/BTRAN/refactorization, pricing rule).
  LpStats stats;

  bool optimal() const { return status == SolveStatus::Optimal; }
};

/// Rest state of a nonbasic variable in a WarmStart.
enum class BoundState : std::uint8_t { AtLower, AtUpper, Free };

/// Resumable-basis snapshot of an optimal solve, in a model-independent
/// encoding so it survives column appends: a basis entry >= 0 names a
/// structural variable by index, an entry e < 0 names the slack of row
/// -1 - e.  Structural variables appended after the snapshot default to
/// nonbasic at lower bound, which is exactly the column-generation growth
/// pattern (the old basis stays primal-feasible and phase 1 is skipped;
/// anything else falls back to a cold two-phase solve).
struct WarmStart {
  bool valid = false;
  /// One entry per constraint row.
  std::vector<int> basis;
  /// Rest states of structural variables at export time; variables added
  /// later rest at their lower bound.
  std::vector<BoundState> struct_state;
  /// Rest states of the row slacks (one per constraint).
  std::vector<BoundState> slack_state;
};

/// Solves the model.  The model is not modified.
LpSolution solve_lp(const LpModel& model, const LpOptions& options = {});

/// Solves the model, resuming from `warm` when it holds a compatible basis
/// (same row count; at most as many structural variables as the model).  On
/// an Optimal exit the final basis is exported back into `warm` so the next
/// solve of a grown model can resume again.  The result is the same optimum
/// a cold solve finds (identical objective and, for non-degenerate models,
/// identical duals); only the pivot path differs.
LpSolution solve_lp(const LpModel& model, const LpOptions& options,
                    WarmStart* warm);

/// Solves the model with per-variable bound overrides (used by branch &
/// bound to explore nodes without copying the model).  `lb`/`ub` must have
/// one entry per variable.
LpSolution solve_lp_with_bounds(const LpModel& model,
                                const std::vector<double>& lb,
                                const std::vector<double>& ub,
                                const LpOptions& options = {});

}  // namespace mmwave::lp

#include "lp/simplex.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <utility>

#include "common/fault_injection.h"
#include "common/log.h"
#include "lp/lu_factor.h"

namespace mmwave::lp {
namespace {

/// Primal feasibility tolerance: bound and row residuals below it count
/// as satisfied, and a step no longer than it counts as degenerate.
constexpr double kFeasibilityTol = 1e-7;
/// Reduced-cost tolerance of the optimality test in pricing.
constexpr double kOptimalityTol = 1e-7;
/// Consecutive non-improving pivots before switching to Bland's rule.
constexpr int kStallThreshold = 60;
/// Under Bland's rule, rows whose exact ratio is within this of the minimum
/// tie, and the lowest basic index among them leaves.
constexpr double kBlandRatioTol = 1e-12;
/// With a time limit set, the deadline clock is read every this many
/// pivots: a steady_clock read is cheap but not free next to a sparse pivot.
constexpr int kDeadlineCheckStride = 16;

enum class VarState : std::uint8_t { Basic, AtLower, AtUpper, FreeNonbasic };

/// Internal bounded-variable simplex working on the computational form
///   min c'x  s.t.  A x = b,  l <= x <= u
/// where columns are [structural | slacks | artificials].  The structural
/// columns are one flat copy of the model's rows made per solve; slack and
/// artificial columns are unit columns, read through the same col(j).
class Simplex {
 public:
  Simplex(const LpModel& model, const std::vector<double>& lb_override,
          const std::vector<double>& ub_override, const LpOptions& options)
      : options_(options) {
    if (options_.time_limit_sec > 0.0) {
      deadline_enabled_ = true;
      deadline_ = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(
                                         options_.time_limit_sec));
    }
    build(model, lb_override, ub_override);
  }

  LpSolution run(WarmStart* warm) {
    LpSolution sol;
    sol.stats = stats_;
    if (bad_term_row_ >= 0) {
      sol.status = SolveStatus::NumericalError;
      sol.error = common::Status::Error(
          common::ErrorCode::kInvalidInput,
          "row " + std::to_string(bad_term_row_) + " names column " +
              std::to_string(bad_term_col_) + ", but the model has " +
              std::to_string(n_struct_) + " variables");
      return sol;
    }
    if (bad_bounds_) {
      sol.status = SolveStatus::Infeasible;
      sol.error = common::Status::Error(common::ErrorCode::kInvalidInput,
                                        "inconsistent variable bounds (lb > ub)");
      return sol;
    }
    if (m_ == 0) {
      solve_unconstrained(sol);
      finalize(sol);
      sol.error = describe(sol.status);
      return sol;
    }

    SolveStatus st = SolveStatus::NumericalError;
    bool solved = false;
    if (warm != nullptr && warm->valid && install_warm_basis(*warm)) {
      // The old optimal basis is still primal-feasible: skip phase 1 and
      // re-optimize directly (typically a handful of pivots after a column
      // append).
      phase1_ = false;
      st = iterate();
      if (st == SolveStatus::Optimal || st == SolveStatus::IterationLimit) {
        solved = true;
        sol.warm_started = true;
      }
      // Anything else means the stale basis went numerically bad mid-flight;
      // fall through to an ordinary cold start.
    }
    if (!solved) {
      sol.warm_started = false;
      st = run_two_phase();
    }
    sol.iterations = iterations_;
    sol.status = st;
    if (st == SolveStatus::Optimal || st == SolveStatus::IterationLimit) {
      finalize(sol);
      sol.status = st;
      if (warm != nullptr && st == SolveStatus::Optimal)
        export_warm_basis(*warm);
    }
    sol.error = describe(st);
    sol.stats = stats_;
    return sol;
  }

  /// Maps an exit status to the structured error the caller propagates.
  [[nodiscard]] common::Status describe(SolveStatus st) const {
    using common::ErrorCode;
    using common::Status;
    switch (st) {
      case SolveStatus::Optimal:
        return Status::Ok();
      case SolveStatus::Infeasible:
        return Status::Error(ErrorCode::kInfeasible, "LP infeasible");
      case SolveStatus::Unbounded:
        return Status::Error(ErrorCode::kUnbounded, "LP unbounded");
      case SolveStatus::IterationLimit:
        return Status::Error(ErrorCode::kLimitHit,
                             (timed_out_ ? "simplex time limit after "
                                         : "simplex iteration limit after ") +
                                 std::to_string(iterations_) + " pivots");
      case SolveStatus::NumericalError:
        return Status::Error(ErrorCode::kNumericalBreakdown,
                             "simplex numerical breakdown after " +
                                 std::to_string(iterations_) + " pivots" +
                                 (poisoned_ ? " (injected fault)" : ""));
    }
    return Status::Error(ErrorCode::kInternal, "unknown simplex status");
  }

 private:
  //--------------------------------------------------------------------
  // Model construction
  //--------------------------------------------------------------------
  void build(const LpModel& model, const std::vector<double>& lb_override,
             const std::vector<double>& ub_override) {
    n_struct_ = model.num_variables();
    m_ = model.num_constraints();
    n_slack_start_ = n_struct_;
    n_art_start_ = n_struct_ + m_;
    num_cols_ = n_struct_ + 2 * m_;

    maximize_ = model.objective_sense() == ObjSense::Maximize;

    lb_.assign(num_cols_, 0.0);
    ub_.assign(num_cols_, 0.0);
    cost_.assign(num_cols_, 0.0);
    b_.assign(m_, 0.0);
    copy_columns(model);

    const bool use_override = !lb_override.empty();
    for (int j = 0; j < n_struct_; ++j) {
      const Variable& v = model.variable(j);
      lb_[j] = use_override ? lb_override[j] : v.lb;
      ub_[j] = use_override ? ub_override[j] : v.ub;
      if (lb_[j] > ub_[j] + kFeasibilityTol) bad_bounds_ = true;
      cost_[j] = maximize_ ? -v.cost : v.cost;
    }

    units_.resize(2 * static_cast<std::size_t>(m_));
    for (int i = 0; i < m_; ++i) {
      const Constraint& row = model.constraint(i);
      b_[i] = row.rhs;
      rhs_scale_ = std::max(rhs_scale_, std::abs(row.rhs));
      // Slack i is the unit column (i, +1); artificial i is (i, +/-1), its
      // sign written by the crash.
      units_[i] = {i, 1.0};
      units_[m_ + i] = {i, 1.0};
      const int sj = n_slack_start_ + i;
      switch (row.sense) {
        case Sense::Le:
          lb_[sj] = 0.0;
          ub_[sj] = kInfinity;
          break;
        case Sense::Ge:
          lb_[sj] = -kInfinity;
          ub_[sj] = 0.0;
          break;
        case Sense::Eq:
          lb_[sj] = 0.0;
          ub_[sj] = 0.0;
          break;
      }
    }

    cost_scale_ = 1.0;
    for (int j = 0; j < n_struct_; ++j)
      cost_scale_ = std::max(cost_scale_, std::abs(cost_[j]));

    max_iterations_ = options_.max_iterations > 0
                          ? options_.max_iterations
                          : std::max<std::int64_t>(
                                2000, 60LL * (m_ + n_struct_));

    pricing_ = make_pricing(options_.pricing);
    pricing_->reset(num_cols_);
    stats_.pricing_rule = pricing_->name();
  }

  /// Copies the model's rows into the flat column-wise structural matrix
  /// (col_start_, entries_): a counting sort by column that visits rows in
  /// ascending order, drops explicit zero coefficients and sums a (row,
  /// column) pair that a row repeats, in row-term order: O(nnz + n + m).  A
  /// term naming a column that does not exist stops the copy half made;
  /// run() rejects the model before anything reads it.
  void copy_columns(const LpModel& model) {
    col_start_.assign(static_cast<std::size_t>(n_struct_) + 1, 0);
    for (int i = 0; i < m_; ++i) {
      for (const auto& [j, coef] : model.constraint(i).terms) {
        if (j < 0 || j >= n_struct_) {
          bad_term_row_ = i;
          bad_term_col_ = j;
          return;
        }
        if (coef != 0.0) ++col_start_[j + 1];
      }
    }
    for (int j = 0; j < n_struct_; ++j) col_start_[j + 1] += col_start_[j];
    entries_.resize(col_start_[n_struct_]);
    // col_start_[j] serves as column j's write cursor and ends at column
    // j's end, which the shift below turns back into starts.  A repeated
    // pair lands right after its first copy; the test can also fire on the
    // previous column's last slot, and then the merge finds nothing.
    bool repeated = false;
    for (int i = 0; i < m_; ++i) {
      for (const auto& [j, coef] : model.constraint(i).terms) {
        if (coef == 0.0) continue;
        const int p = col_start_[j]++;
        repeated = repeated || (p > 0 && entries_[p - 1].first == i);
        entries_[p] = {i, coef};
      }
    }
    for (int j = n_struct_; j > 0; --j) col_start_[j] = col_start_[j - 1];
    col_start_[0] = 0;
    if (!repeated) return;
    int out = 0;
    for (int j = 0; j < n_struct_; ++j) {
      const int begin = col_start_[j];
      const int end = col_start_[j + 1];
      col_start_[j] = out;
      for (int p = begin; p < end; ++p) {
        if (out > col_start_[j] &&
            entries_[out - 1].first == entries_[p].first) {
          entries_[out - 1].second += entries_[p].second;
        } else {
          entries_[out++] = entries_[p];
        }
      }
    }
    col_start_[n_struct_] = out;
    entries_.resize(out);
  }

  /// Column j of [A | I | artificials], rows ascending.
  std::span<const Term> col(int j) const {
    if (j < n_struct_) {
      return {entries_.data() + col_start_[j],
              static_cast<std::size_t>(col_start_[j + 1] - col_start_[j])};
    }
    return {&units_[j - n_struct_], 1};
  }

  /// Places all structural/slack variables at a finite bound (or 0 if free)
  /// and crashes the starting basis: row i's slack is basic whenever it can
  /// absorb the row's residual within its own bounds, and only the other
  /// rows get a signed artificial.  The artificial of a slack-covered row is
  /// pinned at [0, 0] so phase 1 never prices it in.
  void init_basis() {
    xval_.assign(num_cols_, 0.0);
    state_.assign(num_cols_, VarState::AtLower);
    for (int j = 0; j < n_art_start_; ++j) {
      if (std::isfinite(lb_[j])) {
        state_[j] = VarState::AtLower;
        xval_[j] = lb_[j];
      } else if (std::isfinite(ub_[j])) {
        state_[j] = VarState::AtUpper;
        xval_[j] = ub_[j];
      } else {
        state_[j] = VarState::FreeNonbasic;
        xval_[j] = 0.0;
      }
    }

    std::vector<double> residual = b_;
    for (int j = 0; j < n_art_start_; ++j) {
      if (xval_[j] == 0.0) continue;
      for (const auto& [row, coef] : col(j)) residual[row] -= coef * xval_[j];
    }

    basis_.resize(m_);
    for (int i = 0; i < m_; ++i) {
      const int sj = n_slack_start_ + i;
      const int aj = n_art_start_ + i;
      units_[m_ + i].second = residual[i] >= 0.0 ? 1.0 : -1.0;
      // Every slack rests at 0 here, so taking the residual keeps it
      // within bounds exactly when lb <= residual <= ub.
      if (lb_[sj] <= residual[i] && residual[i] <= ub_[sj]) {
        basis_[i] = sj;
        state_[sj] = VarState::Basic;
        xval_[sj] = residual[i];
        lb_[aj] = 0.0;
        ub_[aj] = 0.0;
        continue;
      }
      lb_[aj] = 0.0;
      ub_[aj] = kInfinity;
      basis_[i] = aj;
      state_[aj] = VarState::Basic;
      xval_[aj] = std::abs(residual[i]);
    }
    // The crash basis matrix is diagonal (slacks +1, artificials +/-1), so
    // the factorization installs it in O(m) instead of running a generic
    // refactorization — which for a few-thousand-row LP costs more than an
    // entire budgeted solve.
    diag_.resize(m_);
    for (int i = 0; i < m_; ++i) diag_[i] = col(basis_[i]).front().second;
    lu_.reset_diagonal(diag_);
    pivots_since_refactor_ = 0;
  }

  /// The cold path: phase 1 from the crash basis (skipped when no
  /// artificial is basic, i.e. the slack basis is already feasible), then
  /// phase 2 with the artificials pinned to zero.
  SolveStatus run_two_phase() {
    init_basis();

    // Phase 1: minimize the sum of artificial values.
    const bool any_artificial = std::any_of(
        basis_.begin(), basis_.end(), [&](int j) { return j >= n_art_start_; });
    if (any_artificial) {
      phase1_ = true;
      const std::int64_t start = iterations_;
      const SolveStatus st = iterate();
      stats_.phase1_pivots = iterations_ - start;
      if (st != SolveStatus::Optimal) {
        return st == SolveStatus::Unbounded ? SolveStatus::NumericalError : st;
      }
      if (phase1_objective() > 1e-6 * (1.0 + rhs_scale_)) {
        return SolveStatus::Infeasible;
      }
    }

    // Phase 2: fix artificials at zero and optimize the true objective.
    phase1_ = false;
    for (int j = n_art_start_; j < num_cols_; ++j) {
      lb_[j] = 0.0;
      ub_[j] = 0.0;
      if (state_[j] != VarState::Basic) {
        state_[j] = VarState::AtLower;
        xval_[j] = 0.0;
      }
    }
    return iterate();
  }

  /// Installs a caller-supplied basis: nonbasic variables rest at their
  /// recorded bound (appended columns at lower bound), the basis is
  /// refactorized and the basic values recomputed.  Returns true only when
  /// the basis is nonsingular and the resulting point is primal-feasible —
  /// the condition under which phase 1 may be skipped.
  bool install_warm_basis(const WarmStart& ws) {
    if (static_cast<int>(ws.basis.size()) != m_) return false;
    if (static_cast<int>(ws.struct_state.size()) > n_struct_) return false;
    if (static_cast<int>(ws.slack_state.size()) != m_) return false;

    xval_.assign(num_cols_, 0.0);
    state_.assign(num_cols_, VarState::AtLower);
    auto rest = [&](int j, BoundState st) {
      // Honor the recorded side when that bound is finite; otherwise demote
      // to whichever bound exists (or free).
      const bool fl = std::isfinite(lb_[j]);
      const bool fu = std::isfinite(ub_[j]);
      VarState s;
      if (st == BoundState::AtUpper && fu) {
        s = VarState::AtUpper;
      } else if (st == BoundState::AtLower && fl) {
        s = VarState::AtLower;
      } else if (fl) {
        s = VarState::AtLower;
      } else if (fu) {
        s = VarState::AtUpper;
      } else {
        s = VarState::FreeNonbasic;
      }
      state_[j] = s;
      xval_[j] = s == VarState::AtLower   ? lb_[j]
                 : s == VarState::AtUpper ? ub_[j]
                                          : 0.0;
    };
    for (int j = 0; j < n_struct_; ++j) {
      rest(j, j < static_cast<int>(ws.struct_state.size())
                  ? ws.struct_state[j]
                  : BoundState::AtLower);
    }
    for (int i = 0; i < m_; ++i) rest(n_slack_start_ + i, ws.slack_state[i]);
    // Artificials never participate in a warm solve.
    for (int j = n_art_start_; j < num_cols_; ++j) {
      lb_[j] = 0.0;
      ub_[j] = 0.0;
      state_[j] = VarState::AtLower;
      xval_[j] = 0.0;
    }

    basis_.assign(m_, -1);
    std::vector<char> in_basis(static_cast<std::size_t>(num_cols_), 0);
    for (int i = 0; i < m_; ++i) {
      const int e = ws.basis[i];
      int col;
      if (e >= 0) {
        if (e >= n_struct_) return false;
        col = e;
      } else {
        const int row = -1 - e;
        if (row < 0 || row >= m_) return false;
        col = n_slack_start_ + row;
      }
      if (in_basis[col]) return false;
      in_basis[col] = 1;
      basis_[i] = col;
      state_[col] = VarState::Basic;
    }
    if (!refactor_basis()) return false;

    const double tol = kFeasibilityTol * (1.0 + rhs_scale_);
    for (int i = 0; i < m_; ++i) {
      const int bj = basis_[i];
      if (xval_[bj] < lb_[bj] - tol || xval_[bj] > ub_[bj] + tol) return false;
    }
    return true;
  }

  /// Exports the current (optimal) basis in the model-independent encoding.
  /// A basis still holding an artificial (degenerate equality rows) is not
  /// expressible; the snapshot is invalidated and the next solve runs cold.
  void export_warm_basis(WarmStart& ws) const {
    ws.valid = false;
    ws.basis.assign(m_, 0);
    for (int i = 0; i < m_; ++i) {
      const int bj = basis_[i];
      if (bj < n_struct_) {
        ws.basis[i] = bj;
      } else if (bj < n_art_start_) {
        ws.basis[i] = -1 - (bj - n_slack_start_);
      } else {
        return;
      }
    }
    auto enc = [&](int j) {
      switch (state_[j]) {
        case VarState::AtUpper: return BoundState::AtUpper;
        case VarState::FreeNonbasic: return BoundState::Free;
        default: return BoundState::AtLower;
      }
    };
    ws.struct_state.resize(n_struct_);
    for (int j = 0; j < n_struct_; ++j) ws.struct_state[j] = enc(j);
    ws.slack_state.resize(m_);
    for (int i = 0; i < m_; ++i) ws.slack_state[i] = enc(n_slack_start_ + i);
    ws.valid = true;
  }

  double phase1_objective() const {
    double obj = 0.0;
    for (int i = 0; i < m_; ++i)
      if (basis_[i] >= n_art_start_) obj += xval_[basis_[i]];
    return obj;
  }

  double column_cost(int j) const {
    if (phase1_) return j >= n_art_start_ ? 1.0 : 0.0;
    return j >= n_art_start_ ? 0.0 : cost_[j];
  }

  //--------------------------------------------------------------------
  // Core iteration
  //--------------------------------------------------------------------
  SolveStatus iterate() {
    int stall = 0;
    bool bland = false;
    while (true) {
      if (iterations_ >= max_iterations_) return SolveStatus::IterationLimit;
      // The wall-clock budget preempts long solves mid-flight.  The clock
      // is read only every kDeadlineCheckStride pivots, including pivot 0,
      // so a tiny budget still fires immediately; only solves that opted
      // into a limit pay even the strided cost.
      if (deadline_enabled_ && iterations_ % kDeadlineCheckStride == 0 &&
          Clock::now() >= deadline_) {
        timed_out_ = true;
        return SolveStatus::IterationLimit;
      }
      // Robustness-test hook: a scripted scenario can poison this pivot,
      // modelling the mid-solve numerical breakdowns a singular or badly
      // conditioned basis produces in the wild.  Stays per-pivot — the
      // deadline stride must not change where a scripted fault fires.
      if (common::fault_fires(common::faults::kLpPivotPoison)) {
        poisoned_ = true;
        return SolveStatus::NumericalError;
      }

      compute_duals();
      const int entering = price(bland);
      if (entering < 0) return SolveStatus::Optimal;

      // Direction of travel for the entering variable.
      const double rc = reduced_cost(entering);
      int dir;
      if (state_[entering] == VarState::AtLower) {
        dir = +1;
      } else if (state_[entering] == VarState::AtUpper) {
        dir = -1;
      } else {  // free
        dir = rc < 0.0 ? +1 : -1;
      }

      d_.assign(m_, 0.0);
      for (const auto& [row, coef] : col(entering)) d_[row] += coef;
      lu_.ftran(d_);
      ++stats_.ftran_calls;
      const std::vector<double>& d = d_;

      // Ratio test.  Relaxed ratios (bound + kFeasibilityTol) are used only
      // to *select* the blocking variable (Harris-style, for numerical
      // stability); the actual step is the exact ratio of the winner, so
      // iterates land exactly on bounds.  Under Bland's rule the exact
      // ratios select instead (see below).
      double t_relaxed_limit = kInfinity;
      double t_exact = kInfinity;
      int leaving_pos = -1;   // position in basis; -1 => bound flip
      int leaving_hits_upper = 0;
      const double range =
          ub_[entering] - lb_[entering];  // may be infinite
      if (std::isfinite(range)) t_relaxed_limit = range;

      const double pivot_tol = 1e-9;
      double best_pivot_mag = 0.0;
      double t_min = kInfinity;
      if (bland) blocking_.clear();
      for (int i = 0; i < m_; ++i) {
        const double delta = -dir * d[i];
        if (std::abs(delta) < pivot_tol) continue;
        const int bj = basis_[i];
        double t_rel, t_ex;
        int hits_upper;
        if (delta > 0) {
          if (!std::isfinite(ub_[bj])) continue;
          t_rel = (ub_[bj] - xval_[bj] + kFeasibilityTol) / delta;
          t_ex = (ub_[bj] - xval_[bj]) / delta;
          hits_upper = 1;
        } else {
          if (!std::isfinite(lb_[bj])) continue;
          t_rel = (lb_[bj] - xval_[bj] - kFeasibilityTol) / delta;
          t_ex = (lb_[bj] - xval_[bj]) / delta;
          hits_upper = 0;
        }
        t_rel = std::max(t_rel, 0.0);
        t_ex = std::max(t_ex, 0.0);
        if (bland) {
          blocking_.push_back({i, hits_upper, t_ex});
          t_min = std::min(t_min, t_ex);
          continue;
        }
        const bool better =
            t_rel < t_relaxed_limit - 1e-12 ||
            (t_rel < t_relaxed_limit + 1e-12 &&
             std::abs(d[i]) > best_pivot_mag);
        if (better) {
          t_relaxed_limit = std::min(t_relaxed_limit, t_rel);
          t_exact = t_ex;
          leaving_pos = i;
          leaving_hits_upper = hits_upper;
          best_pivot_mag = std::abs(d[i]);
        }
      }
      // Bland's rule: among the rows that tie the minimum exact ratio, the
      // lowest basic index leaves.  The relaxed ratios cannot decide here:
      // at a degenerate vertex each is kFeasibilityTol/|delta|, different
      // for every row, so choosing by them lets degenerate cycles survive.
      if (bland) {
        for (const Blocking& b : blocking_) {
          if (b.t > t_min + kBlandRatioTol) continue;
          if (leaving_pos < 0 || basis_[b.pos] < basis_[leaving_pos]) {
            leaving_pos = b.pos;
            leaving_hits_upper = b.hits_upper;
            t_exact = b.t;
          }
        }
        if (leaving_pos >= 0) {
          t_relaxed_limit = std::min(t_relaxed_limit, t_exact);
        }
      }

      if (!std::isfinite(t_relaxed_limit)) {
        return phase1_ ? SolveStatus::NumericalError : SolveStatus::Unbounded;
      }

      // A pure bound flip when the entering variable's own range binds first.
      const bool bound_flip =
          std::isfinite(range) && (leaving_pos < 0 || range <= t_exact);
      const double t = bound_flip ? range : t_exact;

      ++iterations_;
      if (t <= kFeasibilityTol) {
        if (++stall > kStallThreshold) bland = true;
      } else {
        stall = 0;
        bland = false;
      }

      // Move the entering variable and update all basic values.
      for (int i = 0; i < m_; ++i) {
        if (d[i] == 0.0) continue;
        xval_[basis_[i]] -= dir * t * d[i];
      }
      xval_[entering] += dir * t;

      if (bound_flip) {
        state_[entering] = dir > 0 ? VarState::AtUpper : VarState::AtLower;
        xval_[entering] = dir > 0 ? ub_[entering] : lb_[entering];
        continue;
      }

      // Basis change.
      const int leaving_var = basis_[leaving_pos];
      state_[leaving_var] =
          leaving_hits_upper ? VarState::AtUpper : VarState::AtLower;
      xval_[leaving_var] =
          leaving_hits_upper ? ub_[leaving_var] : lb_[leaving_var];
      basis_[leaving_pos] = entering;
      state_[entering] = VarState::Basic;

      // Steepest-edge needs the pivot row of the PRE-pivot basis inverse,
      // so the weights update runs before the factorization absorbs the
      // pivot.
      if (pricing_->wants_pivot_row()) {
        update_pricing_weights(entering, leaving_var, leaving_pos);
      }

      if (!lu_.push_eta(d_, leaving_pos)) {
        // Pivot element too small for a product-form update: a fresh
        // factorization of the (already changed) basis is the only
        // consistent continuation.
        if (!refactor_basis()) return SolveStatus::NumericalError;
      } else if (++pivots_since_refactor_ >= options_.refactor_interval) {
        // A failed periodic refactorization keeps the eta chain alive;
        // tolerances will catch drift.
        (void)refactor_basis();
      }
    }
  }

  void compute_duals() {
    cb_.assign(m_, 0.0);
    bool any = false;
    for (int i = 0; i < m_; ++i) {
      cb_[i] = column_cost(basis_[i]);
      any = any || cb_[i] != 0.0;
    }
    y_.assign(m_, 0.0);
    if (!any) return;
    y_ = cb_;
    lu_.btran(y_);
    ++stats_.btran_calls;
  }

  double reduced_cost(int j) const {
    double rc = column_cost(j);
    for (const auto& [row, coef] : col(j)) rc -= y_[row] * coef;
    return rc;
  }

  /// Returns the entering column, or -1 when the current basis is optimal.
  /// Collects every violating candidate and delegates the choice to the
  /// pricing rule; under Bland's rule the first (lowest-index) eligible
  /// column is taken unconditionally, preserving the anti-cycling proof.
  int price(bool bland) {
    const double tol = kOptimalityTol * (1.0 + cost_scale_);
    candidates_.clear();
    for (int j = 0; j < num_cols_; ++j) {
      if (state_[j] == VarState::Basic) continue;
      if (lb_[j] == ub_[j]) continue;  // fixed, never eligible
      const double rc = reduced_cost(j);
      double violation = 0.0;
      if (state_[j] == VarState::AtLower) {
        violation = -rc;
      } else if (state_[j] == VarState::AtUpper) {
        violation = rc;
      } else {  // free
        violation = std::abs(rc);
      }
      if (violation <= tol) continue;
      if (bland) return j;  // first eligible (lowest index)
      candidates_.push_back({j, violation});
    }
    if (candidates_.empty()) return -1;
    const int pick = pricing_->select(candidates_);
    return pick >= 0 ? pick : candidates_.front().column;
  }

  /// Feeds the pivot row to the pricing rule: rho = B^{-T} e_r from the
  /// pre-pivot basis, alpha_j = rho . a_j for every nonbasic column.
  void update_pricing_weights(int entering, int leaving_var, int r) {
    rho_.assign(m_, 0.0);
    rho_[r] = 1.0;
    lu_.btran(rho_);
    ++stats_.btran_calls;
    alpha_.assign(num_cols_, 0.0);
    for (int j = 0; j < num_cols_; ++j) {
      if (state_[j] == VarState::Basic || lb_[j] == ub_[j]) continue;
      double a = 0.0;
      for (const auto& [row, coef] : col(j)) a += rho_[row] * coef;
      alpha_[j] = a;
    }
    alpha_[entering] = d_[r];
    pricing_->update(entering, leaving_var, d_, r, alpha_);
  }

  /// Refactorizes the current basis and, on success, recomputes the basic
  /// values from scratch to shed accumulated error.  Returns false when the
  /// basis matrix is singular (the factorization keeps its previous state;
  /// warm-start installation treats this as "basis unusable", the pivot
  /// loop as "keep limping on the eta chain").
  bool refactor_basis() {
    basis_cols_.clear();
    basis_cols_.reserve(m_);
    for (int i = 0; i < m_; ++i) basis_cols_.push_back(col(basis_[i]));
    if (!lu_.factorize(m_, basis_cols_)) {
      MMWAVE_LOG_WARN << "simplex: singular basis at refactorization";
      return false;
    }
    ++stats_.refactorizations;
    pivots_since_refactor_ = 0;

    rhs_ = b_;
    for (int j = 0; j < num_cols_; ++j) {
      if (state_[j] == VarState::Basic || xval_[j] == 0.0) continue;
      for (const auto& [row, coef] : col(j)) rhs_[row] -= coef * xval_[j];
    }
    lu_.ftran(rhs_);
    ++stats_.ftran_calls;
    for (int i = 0; i < m_; ++i) xval_[basis_[i]] = rhs_[i];
    return true;
  }

  //--------------------------------------------------------------------
  // Result extraction
  //--------------------------------------------------------------------
  void solve_unconstrained(LpSolution& sol) {
    // No constraints: each variable independently sits at its cheaper bound.
    sol.x.assign(n_struct_, 0.0);
    double obj = 0.0;
    for (int j = 0; j < n_struct_; ++j) {
      const double c = cost_[j];
      double v;
      if (c > 0) {
        v = lb_[j];
      } else if (c < 0) {
        v = ub_[j];
      } else {
        v = std::isfinite(lb_[j]) ? lb_[j]
                                  : (std::isfinite(ub_[j]) ? ub_[j] : 0.0);
      }
      if (!std::isfinite(v)) {
        sol.status = SolveStatus::Unbounded;
        return;
      }
      sol.x[j] = v;
      obj += c * v;
    }
    sol.status = SolveStatus::Optimal;
    sol.objective = maximize_ ? -obj : obj;
    sol.duals.clear();
  }

  void finalize(LpSolution& sol) {
    if (m_ == 0) return;
    sol.x.assign(n_struct_, 0.0);
    double obj = 0.0;
    for (int j = 0; j < n_struct_; ++j) {
      sol.x[j] = xval_[j];
      obj += cost_[j] * xval_[j];
    }
    sol.objective = maximize_ ? -obj : obj;
    // A limit can fire before the first pricing pass computed any duals
    // (e.g. a time budget that expired during model build); report zeros
    // rather than reading an empty y_.
    sol.duals.assign(m_, 0.0);
    if (static_cast<int>(y_.size()) >= m_) {
      for (int i = 0; i < m_; ++i)
        sol.duals[i] = maximize_ ? -y_[i] : y_[i];
    }
  }

  //--------------------------------------------------------------------
  const LpOptions options_;
  int n_struct_ = 0;
  int m_ = 0;
  int n_slack_start_ = 0;
  int n_art_start_ = 0;
  int num_cols_ = 0;
  bool maximize_ = false;
  bool bad_bounds_ = false;
  // A row term naming a missing column (row, column); -1 when none.
  int bad_term_row_ = -1;
  int bad_term_col_ = 0;
  bool phase1_ = false;
  double rhs_scale_ = 0.0;
  double cost_scale_ = 1.0;
  std::int64_t max_iterations_ = 0;
  std::int64_t iterations_ = 0;
  int pivots_since_refactor_ = 0;
  bool poisoned_ = false;  // an injected fault aborted this solve
  using Clock = std::chrono::steady_clock;
  bool deadline_enabled_ = false;
  bool timed_out_ = false;  // IterationLimit exit was the time limit
  Clock::time_point deadline_;

  // Structural A by column: column j is entries_[col_start_[j],
  // col_start_[j + 1]).  units_ holds the m slack then m artificial unit
  // entries.
  std::vector<int> col_start_;
  std::vector<Term> entries_;
  std::vector<Term> units_;
  std::vector<double> b_;
  std::vector<double> lb_, ub_, cost_;
  std::vector<double> xval_;
  std::vector<VarState> state_;
  std::vector<int> basis_;
  std::vector<double> y_;

  LuFactor lu_;
  std::unique_ptr<Pricing> pricing_;
  LpStats stats_;
  std::vector<PricingCandidate> candidates_;
  // Rows that block the entering variable, gathered only under Bland's
  // rule: basis position, whether it leaves at its upper bound, exact ratio.
  struct Blocking {
    int pos = 0;
    int hits_upper = 0;
    double t = 0.0;
  };
  std::vector<Blocking> blocking_;
  // Reused per-pivot scratch (FTRAN direction, basic costs, pivot row,
  // pricing alphas, refactorization rhs and basic values, diagonal
  // install).
  std::vector<double> d_, cb_, rho_, alpha_, rhs_, diag_;
  std::vector<std::span<const Term>> basis_cols_;
};

}  // namespace

const char* to_string(SolveStatus status) {
  switch (status) {
    case SolveStatus::Optimal: return "Optimal";
    case SolveStatus::Infeasible: return "Infeasible";
    case SolveStatus::Unbounded: return "Unbounded";
    case SolveStatus::IterationLimit: return "IterationLimit";
    case SolveStatus::NumericalError: return "NumericalError";
  }
  return "Unknown";
}

LpSolution solve_lp(const LpModel& model, const LpOptions& options) {
  Simplex simplex(model, {}, {}, options);
  return simplex.run(nullptr);
}

LpSolution solve_lp(const LpModel& model, const LpOptions& options,
                    WarmStart* warm) {
  Simplex simplex(model, {}, {}, options);
  return simplex.run(warm);
}

LpSolution solve_lp_with_bounds(const LpModel& model,
                                const std::vector<double>& lb,
                                const std::vector<double>& ub,
                                const LpOptions& options) {
  Simplex simplex(model, lb, ub, options);
  return simplex.run(nullptr);
}

}  // namespace mmwave::lp

#include "milp/milp.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <queue>

#include "common/fault_injection.h"
#include "common/log.h"

namespace mmwave::milp {
namespace {

using Clock = std::chrono::steady_clock;

/// An integral variable within this of an integer counts as integral.
constexpr double kIntegralityTol = 1e-6;
/// A limit-truncated solve whose relative gap (MilpSolution::gap) is at
/// most this reports Optimal instead of Feasible.
constexpr double kGapTol = 1e-9;

/// Bound tightening relative to the parent node; nodes share ancestors.
struct BoundChange {
  int var;
  double lb;
  double ub;
  std::shared_ptr<const BoundChange> parent;
};

struct Node {
  std::shared_ptr<const BoundChange> chain;
  double lp_bound;  // internal (minimize) sense
  int depth;
};

struct NodeOrder {
  bool operator()(const Node& a, const Node& b) const {
    if (a.lp_bound != b.lp_bound) return a.lp_bound > b.lp_bound;
    return a.depth < b.depth;  // prefer deeper on ties (dive-ish)
  }
};

class BranchAndBound {
 public:
  BranchAndBound(const MilpModel& model, const MilpOptions& options)
      : model_(model),
        options_(options),
        maximize_(model.objective_sense() == lp::ObjSense::Maximize),
        n_(model.num_variables()) {
    root_lb_.resize(n_);
    root_ub_.resize(n_);
    for (int j = 0; j < n_; ++j) {
      const auto& v = model.lp().variable(j);
      root_lb_[j] = v.lb;
      root_ub_[j] = v.ub;
      if (model.is_integral(j)) {
        // Tighten integral bounds to integers up front.
        if (std::isfinite(root_lb_[j]))
          root_lb_[j] = std::ceil(root_lb_[j] - kIntegralityTol);
        if (std::isfinite(root_ub_[j]))
          root_ub_[j] = std::floor(root_ub_[j] + kIntegralityTol);
      }
    }
  }

  MilpSolution run(const std::vector<double>* warm_start) {
    MilpSolution sol;
    start_ = Clock::now();

    // Robustness-test hook: model the worst truncation a pricing oracle can
    // produce — the limit expires before any incumbent exists.  The trivial
    // dual bound (+/-inf in the model's sense) is still valid, so callers
    // relying on "truncated solves report a valid bound" stay correct.
    if (common::fault_fires(common::faults::kMilpNoSolution)) {
      sol.status = MilpStatus::NoSolution;
      sol.best_bound =
          user_value(-std::numeric_limits<double>::infinity());
      sol.error = common::Status::Error(
          common::ErrorCode::kLimitHit,
          "injected fault: limit hit before first incumbent");
      return sol;
    }

    if (warm_start != nullptr) {
      if (is_feasible_point(model_, *warm_start, kIntegralityTol)) {
        set_incumbent(*warm_start);
      } else {
        MMWAVE_LOG_WARN << "milp: warm start rejected (infeasible)";
      }
    }

    // Root node.
    std::priority_queue<Node, std::vector<Node>, NodeOrder> open;
    {
      lp::LpSolution root = solve_node(nullptr);
      sol.lp_pivots = lp_pivots_;
      if (root.status == lp::SolveStatus::Infeasible) {
        sol.status = MilpStatus::Infeasible;
        sol.error = common::Status::Error(common::ErrorCode::kInfeasible,
                                          "root relaxation infeasible");
        sol.nodes = 1;
        return sol;
      }
      if (root.status == lp::SolveStatus::Unbounded) {
        sol.status = MilpStatus::Unbounded;
        sol.error = common::Status::Error(common::ErrorCode::kUnbounded,
                                          "root relaxation unbounded");
        sol.nodes = 1;
        return sol;
      }
      if (root.status != lp::SolveStatus::Optimal) {
        sol.nodes = 1;
        if (root.error.code() == common::ErrorCode::kLimitHit) {
          // The budget expired inside the root relaxation itself.  Report
          // the honest truncation: the incumbent (if a warm start supplied
          // one) with the trivially valid dual bound, never Error.
          if (have_incumbent_) {
            sol.x = incumbent_;
            sol.objective = user_value(incumbent_obj_);
            sol.status = MilpStatus::Feasible;
          } else {
            sol.status = MilpStatus::NoSolution;
          }
          sol.best_bound =
              user_value(-std::numeric_limits<double>::infinity());
          sol.error = common::Status::Error(
              common::ErrorCode::kLimitHit,
              "limit hit inside the root relaxation (" +
                  root.error.message() + ")");
          return sol;
        }
        sol.status = MilpStatus::Error;
        sol.error = common::Status::Error(
            common::ErrorCode::kNumericalBreakdown,
            "root relaxation failed: " + root.error.to_string());
        return sol;
      }
      process(root, nullptr, 0, open);
    }

    bool limit_hit = false;
    bool cutoff_hit = false;
    while (!open.empty()) {
      // Checked first: a bound that already answers the caller's question
      // beats a budget stop, and it only ever reads the open bound.
      if (cutoff_reached(open.top().lp_bound)) {
        cutoff_hit = true;
        break;
      }
      if (nodes_ >= options_.max_nodes || elapsed() > options_.time_limit_sec) {
        limit_hit = true;
        break;
      }
      // Robustness-test hook: stop at the first incumbent as if the limit
      // expired there (a Feasible exit with the open-node dual bound).
      if (have_incumbent_ &&
          common::fault_fires(common::faults::kMilpTruncate)) {
        limit_hit = true;
        break;
      }
      if (target_met()) break;

      Node node = open.top();
      open.pop();
      // Prune against the incumbent (it may have improved since enqueue).
      if (have_incumbent_ &&
          node.lp_bound >= incumbent_obj_ - absolute_gap_slack()) {
        continue;
      }
      lp::LpSolution rel = solve_node(node.chain.get());
      if (rel.status == lp::SolveStatus::Infeasible) continue;
      if (rel.status != lp::SolveStatus::Optimal) {
        // The node LP could not be resolved (time/iteration limit or a
        // numerical breakdown).  Silently dropping it would also drop its
        // subtree from the open-node dual bound — overclaiming the reported
        // best_bound.  Keep the node open so its (parent) bound stays in
        // the reckoning, and stop as a limit-hit truncation.
        open.push(node);
        limit_hit = true;
        break;
      }
      process(rel, node.chain, node.depth, open);
    }

    sol.nodes = nodes_;
    sol.lp_pivots = lp_pivots_;
    const double open_bound =
        open.empty() ? (have_incumbent_
                            ? incumbent_obj_
                            : std::numeric_limits<double>::infinity())
                     : open.top().lp_bound;

    if (cutoff_hit) {
      // No open node can beat the cutoff: the better of the best open
      // bound and the incumbent is a valid dual bound.
      sol.status = MilpStatus::Cutoff;
      sol.best_bound = user_value(std::min(open_bound, incumbent_obj_));
      if (have_incumbent_) {
        sol.x = incumbent_;
        sol.objective = user_value(incumbent_obj_);
      }
    } else if (have_incumbent_) {
      sol.x = incumbent_;
      sol.objective = user_value(incumbent_obj_);
      if (target_met()) {
        sol.best_bound = user_value(std::min(open_bound, incumbent_obj_));
        sol.status = MilpStatus::TargetReached;
      } else if (limit_hit) {
        sol.best_bound = user_value(std::min(open_bound, incumbent_obj_));
        // gap() is infinite unless the status already says there is a
        // solution, so the status is set before the gap is read.
        sol.status = MilpStatus::Feasible;
        if (sol.gap() <= kGapTol) {
          sol.status = MilpStatus::Optimal;
        } else {
          sol.error = common::Status::Error(
              common::ErrorCode::kLimitHit,
              "limit hit after " + std::to_string(nodes_) +
                  " nodes; incumbent kept with valid dual bound");
        }
      } else {
        sol.best_bound = sol.objective;
        sol.status = MilpStatus::Optimal;
      }
    } else if (limit_hit) {
      sol.best_bound = user_value(open_bound);
      sol.status = MilpStatus::NoSolution;
      sol.error = common::Status::Error(
          common::ErrorCode::kLimitHit,
          "limit hit after " + std::to_string(nodes_) +
              " nodes before any incumbent");
    } else {
      sol.status = MilpStatus::Infeasible;
      sol.error = common::Status::Error(common::ErrorCode::kInfeasible,
                                        "search tree exhausted, no feasible "
                                        "integral point");
    }
    return sol;
  }

 private:
  double elapsed() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  /// Converts an internal (minimize) value back to the model's sense.
  double user_value(double v) const { return maximize_ ? -v : v; }
  /// Converts a model-sense value to internal (minimize).
  double internal_value(double v) const { return maximize_ ? -v : v; }

  double absolute_gap_slack() const {
    return 1e-9 * (1.0 + std::abs(incumbent_obj_));
  }

  /// True when the best open bound `bound` (internal sense) can no longer
  /// beat the cutoff and neither does the incumbent.  An incumbent that
  /// beats the cutoff leaves the search to the ordinary incumbent pruning,
  /// so such a model solves exactly as without a cutoff.
  bool cutoff_reached(double bound) const {
    if (std::isnan(options_.cutoff)) return false;
    const double cutoff = internal_value(options_.cutoff);
    if (have_incumbent_ && incumbent_obj_ < cutoff) return false;
    return bound >= cutoff;
  }

  bool target_met() const {
    if (!have_incumbent_ || std::isnan(options_.target_objective)) return false;
    return incumbent_obj_ <=
           internal_value(options_.target_objective) + 1e-12;
  }

  lp::LpSolution solve_node(const BoundChange* chain) {
    std::vector<double> lb = root_lb_;
    std::vector<double> ub = root_ub_;
    for (const BoundChange* c = chain; c != nullptr; c = c->parent.get()) {
      lb[c->var] = std::max(lb[c->var], c->lb);
      ub[c->var] = std::min(ub[c->var], c->ub);
    }
    ++nodes_;
    // Hard-budget mode: no single node LP may outlive the MILP's own
    // wall-clock budget, so cap it at the remaining time (small floor so a
    // near-expired budget still produces a definitive timeout instead of a
    // zero-length solve).  In the default advisory mode the budget is only
    // checked between nodes and a node LP runs to completion.
    lp::LpOptions node_options = options_.lp_options;
    if (options_.hard_time_limit && std::isfinite(options_.time_limit_sec)) {
      const double remaining =
          std::max(options_.time_limit_sec - elapsed(), 0.01);
      if (node_options.time_limit_sec <= 0.0 ||
          remaining < node_options.time_limit_sec) {
        node_options.time_limit_sec = remaining;
      }
    }
    lp::LpSolution rel =
        lp::solve_lp_with_bounds(model_.lp(), lb, ub, node_options);
    lp_pivots_ += rel.iterations;
    return rel;
  }

  /// Handles an LP-feasible relaxation: either fathoms it as a new incumbent,
  /// or branches and enqueues the children.
  void process(const lp::LpSolution& rel,
               std::shared_ptr<const BoundChange> chain, int depth,
               std::priority_queue<Node, std::vector<Node>, NodeOrder>& open) {
    const double bound = internal_value(rel.objective);
    if (have_incumbent_ && bound >= incumbent_obj_ - absolute_gap_slack())
      return;

    const int branch_var = pick_branch_variable(rel.x);
    if (branch_var < 0) {
      set_incumbent(rel.x);
      return;
    }

    // Rounding heuristic: snap all integral variables and keep the point if
    // it is feasible; often supplies an early incumbent for pruning.
    try_rounding(rel.x);

    const double frac = rel.x[branch_var];
    const double lo = std::floor(frac);
    // Child with x <= floor.
    {
      auto change = std::make_shared<BoundChange>(
          BoundChange{branch_var, -lp::kInfinity, lo, chain});
      open.push(Node{std::move(change), bound, depth + 1});
    }
    // Child with x >= ceil.
    {
      auto change = std::make_shared<BoundChange>(
          BoundChange{branch_var, lo + 1.0, lp::kInfinity, chain});
      open.push(Node{std::move(change), bound, depth + 1});
    }
  }

  /// Most-fractional integral variable; -1 when integral within tolerance.
  int pick_branch_variable(const std::vector<double>& x) const {
    int best = -1;
    double best_score = kIntegralityTol;
    for (int j = 0; j < n_; ++j) {
      if (!model_.is_integral(j)) continue;
      const double frac = x[j] - std::floor(x[j]);
      const double dist = std::min(frac, 1.0 - frac);
      if (dist <= kIntegralityTol) continue;
      // Most fractional, weighted slightly by cost magnitude to break ties
      // toward variables that matter for the objective.
      const double score =
          dist + 1e-6 * std::abs(model_.lp().variable(j).cost);
      if (score > best_score) {
        best_score = score;
        best = j;
      }
    }
    return best;
  }

  void try_rounding(const std::vector<double>& x) {
    std::vector<double> rounded = x;
    bool any = false;
    for (int j = 0; j < n_; ++j) {
      if (!model_.is_integral(j)) continue;
      const double snapped = std::round(rounded[j]);
      if (std::abs(snapped - rounded[j]) > kIntegralityTol)
        any = true;
      rounded[j] = snapped;
    }
    if (!any) return;  // already integral; handled as incumbent by caller
    if (is_feasible_point(model_, rounded, 1e-6)) set_incumbent(rounded);
  }

  void set_incumbent(const std::vector<double>& x) {
    double obj = 0.0;
    for (int j = 0; j < n_; ++j) obj += model_.lp().variable(j).cost * x[j];
    const double internal = internal_value(obj);
    if (have_incumbent_ && internal >= incumbent_obj_) return;
    incumbent_ = x;
    // Snap integral entries exactly.
    for (int j = 0; j < n_; ++j)
      if (model_.is_integral(j)) incumbent_[j] = std::round(incumbent_[j]);
    incumbent_obj_ = internal;
    have_incumbent_ = true;
  }

  const MilpModel& model_;
  const MilpOptions options_;
  const bool maximize_;
  const int n_;
  std::vector<double> root_lb_, root_ub_;

  bool have_incumbent_ = false;
  double incumbent_obj_ = std::numeric_limits<double>::infinity();
  std::vector<double> incumbent_;
  std::int64_t nodes_ = 0;
  std::int64_t lp_pivots_ = 0;
  Clock::time_point start_;
};

}  // namespace

const char* to_string(MilpStatus status) {
  switch (status) {
    case MilpStatus::Optimal: return "Optimal";
    case MilpStatus::Feasible: return "Feasible";
    case MilpStatus::TargetReached: return "TargetReached";
    case MilpStatus::Cutoff: return "Cutoff";
    case MilpStatus::Infeasible: return "Infeasible";
    case MilpStatus::NoSolution: return "NoSolution";
    case MilpStatus::Unbounded: return "Unbounded";
    case MilpStatus::Error: return "Error";
  }
  return "Unknown";
}

MilpSolution solve_milp(const MilpModel& model, const MilpOptions& options,
                        const std::vector<double>* warm_start) {
  BranchAndBound bnb(model, options);
  return bnb.run(warm_start);
}

bool is_feasible_point(const MilpModel& model, const std::vector<double>& x,
                       double tol) {
  if (static_cast<int>(x.size()) != model.num_variables()) return false;
  for (int j = 0; j < model.num_variables(); ++j) {
    const auto& v = model.lp().variable(j);
    if (x[j] < v.lb - tol || x[j] > v.ub + tol) return false;
    if (model.is_integral(j) &&
        std::abs(x[j] - std::round(x[j])) > tol) {
      return false;
    }
  }
  for (int i = 0; i < model.num_constraints(); ++i) {
    const auto& row = model.lp().constraint(i);
    double lhs = 0.0;
    for (const auto& [col, coef] : row.terms) lhs += coef * x[col];
    const double slack_tol = tol * (1.0 + std::abs(row.rhs));
    switch (row.sense) {
      case lp::Sense::Le:
        if (lhs > row.rhs + slack_tol) return false;
        break;
      case lp::Sense::Ge:
        if (lhs < row.rhs - slack_tol) return false;
        break;
      case lp::Sense::Eq:
        if (std::abs(lhs - row.rhs) > slack_tol) return false;
        break;
    }
  }
  return true;
}

}  // namespace mmwave::milp

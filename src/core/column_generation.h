// Column-generation driver (Sections IV-V of the paper).
//
// Loop:
//   1. initialize the restricted master with the TDMA columns (IV-B);
//   2. solve the MP, read the duals (simplex multipliers);
//   3. price: greedy heuristic first, exact MILP when the heuristic finds
//      nothing (or always, in Exact mode);
//   4. if the most negative reduced cost Phi >= -eps with an exact pricer,
//      the MP optimum equals the P1 optimum — stop;
//   5. otherwise enter the new column and repeat.
//
// At every exact-priced iteration the Theorem-1 lower bound
//   LB = (Lambda_hp . d_hp + Lambda_lp . d_lp) / (1 - Phi)
// is recorded; the incumbent MP objective is the matching upper bound, so
// the driver can also stop at a requested relative gap ("sufficiently
// competitive solution", Section V-A).
#pragma once

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/master.h"
#include "core/pricing_greedy.h"
#include "core/pricing_milp.h"
#include "mmwave/network.h"
#include "sched/timeline.h"
#include "video/demand.h"

namespace mmwave::core {

enum class PricingMode {
  /// Greedy heuristic each iteration; exact MILP only when the heuristic
  /// fails (needed for the termination certificate).  Default.
  HeuristicThenExact,
  /// Exact MILP every iteration: Phi and the Theorem-1 bound are exact at
  /// each step (used for the Fig. 4 convergence study).
  ExactAlways,
  /// Heuristic only: no optimality certificate; terminates when the
  /// heuristic finds no improving column.  Fast mode for large sweeps.
  HeuristicOnly,
};

struct CgOptions {
  PricingMode pricing = PricingMode::HeuristicThenExact;
  /// Reduced-cost tolerance: Phi >= -eps terminates.
  double eps = 1e-6;
  int max_iterations = 1000;
  /// Early stop when (UB - bestLB)/UB <= gap_tolerance (0 disables; only
  /// effective on iterations that produce a valid lower bound).
  double gap_tolerance = 0.0;
  GreedyPricingOptions greedy;
  MilpPricingOptions exact;
  /// Keep default exact-pricing solves bounded; a truncated certification
  /// downgrades `converged` instead of hanging the caller.  Raise the
  /// limits (Fig. 4 bench does) when a hard optimality certificate matters
  /// more than latency.
  CgOptions() {
    exact.milp.time_limit_sec = 10.0;
    exact.milp.max_nodes = 50'000;
  }
  /// In HeuristicThenExact mode, stop the exact pricer at the first
  /// improving column instead of the true optimum (faster; the final
  /// certification iteration always runs to optimality).
  bool exact_early_stop = true;
  /// Warm-start every master solve from the previous optimal basis (the
  /// appended column enters nonbasic; phase 1 is skipped while the old
  /// basis stays primal-feasible).  Off = cold two-phase solve every
  /// iteration — the pre-incremental behavior, kept for A/B benchmarking
  /// and the warm/cold equivalence tests.
  bool warm_start_master = true;
  /// Entering-variable pricing rule of the master LP's revised simplex
  /// (lp/pricing.h): Dantzig (default) or steepest-edge.  Distinct from
  /// `pricing`, which selects the column-generation pricing subproblem.
  lp::PricingRule lp_pricing = lp::PricingRule::kDantzig;
  /// Run the independent certificate checkers (src/check) alongside the
  /// solve: an LP certificate of every master solve, a ScheduleVerifier
  /// pass over every column entering the pool, the Theorem-1 invariant
  /// LB <= MP objective each iteration, and a coverage check of the final
  /// timeline.  Failures are collected in CgResult::verification (the
  /// solve itself is not aborted — the point is to surface silent wrongs).
  bool verify = false;

  // --- Anytime solve control (robustness layer) -------------------------
  /// Wall-clock budget for the whole solve, seconds (0 disables).  On
  /// expiry the solve stops where it is and returns the incumbent schedule
  /// with its best Theorem-1 bound, `degraded` set and the reason recorded
  /// — the anytime contract of Algorithm 1.
  double deadline_sec = 0.0;
  /// Under a deadline, each exact-pricing call gets
  ///   min(exact.milp.time_limit_sec,
  ///       max(milp_budget_fraction * remaining, min_milp_budget_sec))
  /// capped at the remaining budget itself, so the MILP budget shrinks as
  /// the deadline nears and a single pricing call can never blow through
  /// the deadline.
  double milp_budget_fraction = 0.5;
  double min_milp_budget_sec = 0.05;
  /// Stall detection: this many consecutive iterations without relative
  /// LB/UB progress (or a duplicate/inconclusive pricing round) trigger the
  /// escalation ladder — greedy pricing -> full-budget exact MILP ->
  /// dual-perturbation retry — and, exhausted, a degraded stop instead of
  /// an endless loop.  0 disables the window (duplicate-column escalation
  /// stays active).
  int stall_window = 15;
  /// Relative LB/UB movement below this counts as "no progress".
  double stall_rel_progress = 1e-9;
  /// Magnitude of the multiplicative dual perturbation of the last-resort
  /// repricing retry (columns found under perturbed duals are only accepted
  /// if they price negative under the true duals).
  double dual_perturbation = 1e-5;
  std::uint64_t perturbation_seed = 0x5EEDF00D;
  /// Reject malformed instances (NaN/negative gains or demands, size
  /// mismatches) via check::validate_instance before the solver touches
  /// them; failures return degraded + kInvalidInput instead of UB/garbage.
  bool validate_input = true;

  // --- Warm pool (checkpoint/resolve layer) -----------------------------
  /// Columns seeded into the master ahead of the CG loop, after the TDMA
  /// initialization columns — the surviving pool of a checkpoint restore
  /// (core::resolve / repair_pool).  Each column is defensively
  /// re-validated against *this* instance before entry; invalid ones are
  /// skipped (counted in CgProfile), never allowed to poison the master.
  /// Extra feasible columns cannot change the P1 optimum, only how fast CG
  /// certifies it.
  std::vector<sched::Schedule> warm_pool;
};

/// Why the column-generation loop stopped.
enum class CgStopReason {
  /// Optimality certified (Phi >= -eps, exact pricer) or the requested gap
  /// tolerance was reached.
  kConverged,
  /// HeuristicOnly mode: the heuristic found no more improving columns
  /// (expected terminal state of that mode, not a degradation).
  kHeuristicFixedPoint,
  kIterationLimit,
  kDeadline,
  /// Escalation ladder exhausted without progress (cycling/duplicates).
  kStalled,
  /// The master LP failed and the cold retry failed too.
  kMasterFailure,
  /// The exact pricer could not produce a usable answer even escalated.
  kPricingFailure,
  /// check::validate_instance rejected the input.
  kInvalidInput,
  /// An unexpected exception was caught at the solve boundary.
  kInternalError,
};

const char* to_string(CgStopReason reason);

struct IterationStat {
  int iteration = 0;
  /// MP objective (upper bound on the P1 optimum), slots.
  double master_objective = 0.0;
  /// Most negative reduced cost Phi = 1 - Psi of this iteration's pricing.
  /// Exact only when `exact_pricing`; otherwise it is the reduced cost of
  /// the best column the heuristic found (an upper bound on the true Phi).
  double phi = 0.0;
  /// Theorem-1 lower bound (NaN when no valid bound this iteration).
  double lower_bound = std::nan("");
  /// Best valid lower bound so far.
  double best_lower_bound = std::nan("");
  int num_columns = 0;
  bool exact_pricing = false;
  /// --- Per-phase instrumentation (wall clock, seconds) ---
  double master_seconds = 0.0;
  double pricing_seconds = 0.0;
  /// Simplex pivots the master solve spent this iteration.
  std::int64_t master_pivots = 0;
  /// True when the master solve resumed from the previous optimal basis.
  bool master_warm_started = false;
};

/// Aggregated per-phase wall-clock profile of one CG solve (printed by
/// `mmwave_cli solve --profile`, exported by the perf benches).
struct CgProfile {
  double master_seconds = 0.0;
  double greedy_seconds = 0.0;
  double milp_seconds = 0.0;
  std::int64_t master_pivots = 0;
  int master_solves = 0;
  int master_warm_hits = 0;
  int greedy_calls = 0;
  int milp_calls = 0;
  /// Warm-pool columns accepted into / rejected from the initial master
  /// (CgOptions::warm_pool; rejected = failed re-validation or duplicate).
  int warm_pool_columns = 0;
  int warm_pool_rejected = 0;
  /// Basis-engine work across all master solves (revised simplex).
  std::int64_t lp_ftran_calls = 0;
  std::int64_t lp_btran_calls = 0;
  int lp_refactorizations = 0;
  /// Pricing rule the master LPs ran ("dantzig" | "steepest-edge").
  const char* lp_pricing_rule = "";

  /// Fraction of master solves that resumed from a prior basis.
  double warm_hit_rate() const {
    return master_solves > 0
               ? static_cast<double>(master_warm_hits) / master_solves
               : 0.0;
  }
  /// Mean simplex pivots per master solve.
  double pivots_per_solve() const {
    return master_solves > 0
               ? static_cast<double>(master_pivots) / master_solves
               : 0.0;
  }
};

/// Outcome of the CgOptions::verify certificate checks.
struct VerificationSummary {
  /// False when the run did not verify (CgOptions::verify was off).
  bool enabled = false;
  /// Master LP certificates re-proved (one per iteration plus the final
  /// extraction solve).
  int lp_certificates = 0;
  /// Columns re-proved feasible by the ScheduleVerifier (initial TDMA
  /// columns plus every priced column).
  int columns_verified = 0;
  /// Theorem-1 invariant checks (LB <= MP objective) performed.
  int bound_checks = 0;
  /// Every failed check, in the order encountered.
  std::vector<std::string> errors;

  bool ok() const { return errors.empty(); }
};

struct CgResult {
  /// True iff optimality was certified (Phi >= -eps under exact pricing)
  /// or the requested gap tolerance was reached.
  bool converged = false;
  /// Final MP objective (slots).  This is the P1 optimum when `converged`
  /// with gap_tolerance == 0.
  double total_slots = 0.0;
  /// Best Theorem-1 lower bound (NaN if no exact pricing ever ran).
  double lower_bound = std::nan("");
  /// Columns with tau > 0, ready for timeline execution.
  std::vector<sched::TimedSchedule> timeline;
  std::vector<IterationStat> history;
  int iterations = 0;
  /// Links whose demand could not be served at all (no reachable rate
  /// level on any channel, e.g. blocked): their demands are excluded from
  /// the optimization and the PNC must defer them.
  std::vector<int> unserved_links;
  /// Certificate-checker outcome (populated when CgOptions::verify).
  VerificationSummary verification;
  /// Per-phase wall-clock counters of this solve.
  CgProfile profile;

  // --- Checkpointable solver state (core::CgCheckpoint) -----------------
  /// The full column pool of the final restricted master (every TDMA,
  /// warm-pool and priced column), in master order; empty when the master
  /// was never built (invalid input).
  std::vector<sched::Schedule> pool;
  /// tau^s per pool column in the final (or incumbent) master solution,
  /// aligned with `pool`; zero for columns outside the emitted plan.
  std::vector<double> pool_tau;
  /// Final simplex multipliers per link (slots/bit); empty if the master
  /// never solved.
  std::vector<double> duals_hp;
  std::vector<double> duals_lp;

  // --- Anytime / failure-semantics contract -----------------------------
  /// True when the solve could not run to its normal conclusion (deadline,
  /// stall, solver breakdown, invalid input) and the result is the best
  /// incumbent instead.  The timeline and lower_bound are still valid:
  /// every returned schedule passes the ScheduleVerifier and
  /// best_lower_bound() <= total_slots holds whenever both exist.
  bool degraded = false;
  /// Why the loop stopped (kConverged on a clean run).
  CgStopReason stop_reason = CgStopReason::kIterationLimit;
  /// Structured detail for degraded exits; Ok otherwise.
  common::Status status;
  /// Wall-clock seconds the whole solve consumed (deadline accounting).
  double solve_seconds = 0.0;

  /// Best Theorem-1 lower bound of the run (alias of lower_bound; NaN when
  /// no exact pricing ever produced a valid bound).
  double best_lower_bound() const { return lower_bound; }

  double gap() const {
    if (std::isnan(lower_bound) || total_slots <= 0.0) return std::nan("");
    return (total_slots - lower_bound) / total_slots;
  }
};

/// Theorem 1: lower bound on the P1 optimum from duals, demands and Phi.
/// `phi` must be a valid lower bound on the most negative reduced cost
/// (exact Phi, or 1 - Psi_upper_bound from a truncated pricer).
///
/// Hardened: a non-finite dual value (NaN demands/duals), a NaN `phi`, or a
/// denominator 1 - Phi that is not safely positive returns -infinity — a
/// trivially valid bound the caller skips — instead of poisoning best_lb
/// with +/-inf or NaN.
double theorem1_lower_bound(const std::vector<double>& lambda_hp,
                            const std::vector<double>& lambda_lp,
                            const std::vector<video::LinkDemand>& demands,
                            double phi);

/// The TDMA initialization columns of Section IV-B: one column per
/// (link, layer), the link alone on its best channel at its highest solo
/// rate level.  Links that cannot reach even the lowest level on any
/// channel are skipped (the master will be infeasible, which solve reports).
std::vector<sched::Schedule> tdma_initial_columns(const net::Network& net);

/// Runs column generation on the instance.
CgResult solve_column_generation(const net::Network& net,
                                 const std::vector<video::LinkDemand>& demands,
                                 const CgOptions& options = {});

}  // namespace mmwave::core

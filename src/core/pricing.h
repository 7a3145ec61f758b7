// Shared pricing-subproblem types.
//
// The pricing step hunts for the feasible schedule s* maximizing
//   Psi(s) = sum_l lambda_hp(l) r^s_hp(l) + lambda_lp(l) r^s_lp(l)
// (rates in bits/slot).  The most negative reduced cost is Phi = 1 - Psi*.
// A schedule improves the master iff Psi > 1.
#pragma once

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "sched/schedule.h"

namespace mmwave::core {

struct PricingResult {
  bool found = false;          ///< a schedule with Psi > 1 + eps exists
  sched::Schedule schedule;    ///< the best schedule found
  double psi = 0.0;            ///< its Psi value
  /// Valid upper bound on Psi over ALL feasible schedules.  Equals `psi`
  /// when the pricing was solved to optimality; +inf when the solver can
  /// certify nothing (e.g. the greedy heuristic).
  double psi_upper_bound = 0.0;
  /// psi_upper_bound certifies the verdict: it is the optimal Psi, or (a
  /// MILP stopped at its cutoff) a bound no greater than the cutoff, which
  /// proves that no schedule beats it.
  bool exact = false;
  /// Structured failure detail: Ok for a clean (heuristic or exact) solve,
  /// kLimitHit for a truncated MILP, kNumericalBreakdown when the oracle
  /// itself failed.  A non-ok status can still carry a usable schedule and
  /// a valid psi_upper_bound.
  common::Status status;
  /// Branch-and-bound work of an exact (MILP) pricing call: nodes solved
  /// and simplex pivots over all node LPs; 0 for the heuristic.
  std::int64_t milp_nodes = 0;
  std::int64_t milp_lp_pivots = 0;
};

}  // namespace mmwave::core

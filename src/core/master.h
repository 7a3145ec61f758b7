// The restricted Master Problem (MP) of the column generation (Section IV-B).
//
//   min  sum_s tau^s
//   s.t. sum_s r_l^s(hp) tau^s >= d_l(hp)   (dual lambda_l(hp) >= 0)
//        sum_s r_l^s(lp) tau^s >= d_l(lp)   (dual lambda_l(lp) >= 0)
//        tau >= 0
//
// over the current column pool S'.  Units: tau in slots, rates in bits/slot,
// demands in bits, so duals come out in slots/bit and the reduced cost of a
// schedule s is  mu^s = 1 - sum_l (lambda_hp r^s_hp + lambda_lp r^s_lp).
#pragma once

#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/status.h"
#include "core/master_layout.h"
#include "lp/model.h"
#include "lp/simplex.h"
#include "mmwave/network.h"
#include "sched/schedule.h"
#include "video/demand.h"

namespace mmwave::core {

/// Raw LP artifacts of one master solve, exported on demand so an
/// independent referee (check::check_lp_certificate) can re-prove
/// optimality of the claimed (tau, lambda) pair without touching simplex
/// internals.
struct MasterCertificate {
  lp::LpModel model;
  lp::LpSolution solution;
};

struct MasterSolution {
  bool ok = false;
  /// Objective: total slots (the upper bound of P1 at this iteration).
  double objective_slots = 0.0;
  /// tau^s per column, aligned with MasterProblem::columns().
  std::vector<double> tau;
  /// Simplex multipliers per link (slots/bit).
  std::vector<double> lambda_hp;
  std::vector<double> lambda_lp;
  /// Simplex pivots this solve spent (profiling).
  std::int64_t simplex_iterations = 0;
  /// True when the solve resumed from the previous optimal basis instead of
  /// cold-starting the two-phase simplex.
  bool warm_started = false;
  /// Structured failure detail when !ok (numerical breakdown, iteration
  /// limit, infeasible restricted master...), Ok otherwise.  A warm solve
  /// that broke down numerically is retried cold once before failing.
  common::Status status;
  /// Basis-engine work counters (FTRAN/BTRAN/refactorizations, pricing
  /// rule), accumulated over the warm attempt and any cold retry.
  lp::LpStats lp_stats;
};

class MasterProblem {
 public:
  MasterProblem(const net::Network& net,
                std::vector<video::LinkDemand> demands);

  /// Adds a column unless an identical schedule (same link/layer/q/k tuples)
  /// is already present.  Returns true if added.
  bool add_column(const sched::Schedule& schedule);

  /// True if the schedule is already in the pool.
  bool contains(const sched::Schedule& schedule) const;

  const std::vector<sched::Schedule>& columns() const { return columns_; }
  std::size_t num_columns() const { return columns_.size(); }
  const std::vector<video::LinkDemand>& demands() const { return demands_; }

  /// Solves the restricted LP exactly and extracts the duals.  When
  /// `certificate` is non-null the LP model and raw solution are exported
  /// into it for independent certificate checking (the model is snapshotted
  /// by copy; it keeps growing afterwards).
  ///
  /// Solves are incremental: the LP model persists across calls, growing by
  /// one column per add_column, and each solve warm-starts from the previous
  /// optimal basis (new columns enter nonbasic at zero), falling back to a
  /// cold two-phase solve when the old basis is unusable.
  MasterSolution solve(MasterCertificate* certificate = nullptr);

  /// Disables/enables warm-starting (default on).  With warm starts off
  /// every solve cold-starts the two-phase simplex — the pre-incremental
  /// behavior, kept for A/B benchmarking and equivalence tests.
  void set_warm_start(bool enabled) {
    warm_start_enabled_ = enabled;
    if (!enabled) warm_.valid = false;
  }

  /// Overrides the LP solver options used by every subsequent solve()
  /// (pricing rule, refactorization interval, limits).  Defaults to
  /// LpOptions{}.
  void set_lp_options(const lp::LpOptions& options) { lp_options_ = options; }

 private:
  const net::Network& net_;
  std::vector<video::LinkDemand> demands_;
  std::vector<sched::Schedule> columns_;
  std::unordered_set<std::string> keys_;  // Schedule::key() per column
  /// Persistent restricted LP (rows fixed at construction, one variable per
  /// pooled column) and the resumable basis of its last optimal solve.
  lp::LpModel model_;
  lp::WarmStart warm_;
  bool warm_start_enabled_ = true;
  lp::LpOptions lp_options_;
};

}  // namespace mmwave::core

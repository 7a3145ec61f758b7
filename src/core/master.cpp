#include "core/master.h"

#include <utility>

namespace mmwave::core {

MasterProblem::MasterProblem(const net::Network& net,
                             std::vector<video::LinkDemand> demands)
    : net_(net), demands_(std::move(demands)) {
  // Row layout: [hp | lp] (master_layout.h).  Rows are created once, empty;
  // add_column extends them in place so solves can resume from the previous
  // basis instead of rebuilding the LP every iteration.
  const int num_links = net_.num_links();
  for (int l = 0; l < num_links; ++l) {
    model_.add_constraint({}, lp::Sense::Ge, demands_[l].hp_bits);
  }
  for (int l = 0; l < num_links; ++l) {
    model_.add_constraint({}, lp::Sense::Ge, demands_[l].lp_bits);
  }
}

bool MasterProblem::add_column(const sched::Schedule& schedule) {
  if (!keys_.insert(schedule.key()).second) return false;
  columns_.push_back(schedule);

  const int var = model_.add_variable(0.0, lp::kInfinity, 1.0);
  const int num_links = net_.num_links();
  const std::vector<double> hp =
      schedule.rate_column_bits_per_slot(net_, net::Layer::Hp);
  const std::vector<double> lp =
      schedule.rate_column_bits_per_slot(net_, net::Layer::Lp);
  for (int l = 0; l < num_links; ++l) {
    if (hp[l] > 0.0) model_.add_term(master_hp_row(l), var, hp[l]);
    if (lp[l] > 0.0) model_.add_term(master_lp_row(num_links, l), var, lp[l]);
  }
  return true;
}

bool MasterProblem::contains(const sched::Schedule& schedule) const {
  return keys_.count(schedule.key()) != 0;
}

MasterSolution MasterProblem::solve(MasterCertificate* certificate) {
  MasterSolution out;
  const int num_links = net_.num_links();

  lp::LpSolution sol = lp::solve_lp(
      model_, lp_options_, warm_start_enabled_ ? &warm_ : nullptr);
  if (!sol.optimal() && warm_start_enabled_) {
    // The warm path already falls back to a cold start when the stale basis
    // is unusable, but a breakdown *during* the cold re-solve (or a poisoned
    // pivot) can still surface here.  One explicit cold retry with the
    // snapshot dropped is the cheapest recovery that can possibly work.
    out.simplex_iterations += sol.iterations;
    out.lp_stats.ftran_calls += sol.stats.ftran_calls;
    out.lp_stats.btran_calls += sol.stats.btran_calls;
    out.lp_stats.refactorizations += sol.stats.refactorizations;
    warm_.valid = false;
    sol = lp::solve_lp(model_, lp_options_, &warm_);
  }
  if (certificate) {
    certificate->solution = sol;
    certificate->model = model_;
  }
  out.simplex_iterations += sol.iterations;
  out.lp_stats.ftran_calls += sol.stats.ftran_calls;
  out.lp_stats.btran_calls += sol.stats.btran_calls;
  out.lp_stats.refactorizations += sol.stats.refactorizations;
  out.lp_stats.pricing_rule = sol.stats.pricing_rule;
  out.warm_started = sol.warm_started;
  out.status = sol.error;
  if (!sol.optimal()) {
    if (out.status.ok()) {
      out.status = common::Status::Error(
          common::ErrorCode::kNumericalBreakdown,
          std::string("master LP solve failed: ") + lp::to_string(sol.status));
    }
    return out;
  }

  out.ok = true;
  out.objective_slots = sol.objective;
  out.tau = sol.x;
  out.lambda_hp.assign(num_links, 0.0);
  out.lambda_lp.assign(num_links, 0.0);
  for (int l = 0; l < num_links; ++l) {
    out.lambda_hp[l] = clamp_master_dual(sol.duals[master_hp_row(l)]);
    out.lambda_lp[l] =
        clamp_master_dual(sol.duals[master_lp_row(num_links, l)]);
  }
  return out;
}

}  // namespace mmwave::core

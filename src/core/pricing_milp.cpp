#include "core/pricing_milp.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>

#include "common/log.h"

namespace mmwave::core {
namespace {

std::size_t xid(const net::Network& net, int l, int q, int k, int layer) {
  const int K = net.num_channels();
  const int Q = net.num_rate_levels();
  return ((static_cast<std::size_t>(l) * Q + q) * K + k) * 2 + layer;
}

}  // namespace

int conflict_staircase(net::PowerSolver& solver, int k, int a, int top_a,
                       int b, int top_b, std::span<int> first_conflict) {
  const net::Network& net = solver.network();
  const int links[2] = {a, b};
  double gammas[2];
  int solves = 0;
  const auto conflict = [&](int qa, int qb) {
    gammas[0] = net.rate_level(qa).sinr_threshold;
    gammas[1] = net.rate_level(qb).sinr_threshold;
    ++solves;
    return !solver.min_power(k, links, gammas);
  };
  int qb = top_b;
  if (conflict(top_a, top_b)) {
    // first_conflict is non-increasing in qa: row qa starts where row
    // qa - 1 ended, and every solve either moves down a level of b (a
    // conflict) or on to the next level of a (no conflict).  The corner
    // is known to conflict and is not solved again.
    for (int qa = 0; qa <= top_a; ++qa) {
      while (qb >= 0 &&
             ((qa == top_a && qb == top_b) || conflict(qa, qb))) {
        --qb;
      }
      first_conflict[qa] = qb + 1;
    }
  } else {
    std::fill_n(first_conflict.begin(), top_a + 1, top_b + 1);
  }
  return solves;
}

/// Builds the dual-independent model skeleton: one binary per (l, q, k,
/// layer) that can reach the SINR threshold interference-free at Pmax (an
/// exact, network-only prune), per-channel powers, SINR activation rows,
/// coupling/choice/half-duplex constraints and the pairwise conflict cuts.
/// Objective coefficients are all zero here; solve_pricing_milp rewrites
/// them (and the activation bounds) from the duals on every call.
void PricingMilpCache::build(const net::Network& net,
                             const MilpPricingOptions& options) {
  const auto started = std::chrono::steady_clock::now();
  const int L = net.num_links();
  const int K = net.num_channels();
  const int Q = net.num_rate_levels();
  const double pmax = net.params().p_max_watts;

  PricingMilpCache& c = *this;
  c = PricingMilpCache();
  c.fixed_power_ = options.fixed_power;
  c.allow_layer_split_ = options.allow_layer_split;
  c.links_ = L;
  c.channels_ = K;
  c.levels_ = Q;
  const auto finish = [&] {
    c.built_ = true;
    c.build_seconds_ = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - started)
                           .count();
  };

  milp::MilpModel& model = c.model_;
  model.set_objective_sense(lp::ObjSense::Maximize);

  // --- Variables -------------------------------------------------------
  // The ladder ascends, so link l's levels on channel k are 0..top[l, k]
  // (-1: none), the same for both layers.
  c.xindex_.assign(static_cast<std::size_t>(L) * Q * K * 2, -1);
  std::vector<int> top(static_cast<std::size_t>(L) * K, -1);
  for (int l = 0; l < L; ++l) {
    for (int layer = 0; layer < 2; ++layer) {
      for (int k = 0; k < K; ++k) {
        const double solo_sinr =
            net.direct_gain(l, k) * pmax / net.noise(l);
        for (int q = 0; q < Q; ++q) {
          if (solo_sinr < net.rate_level(q).sinr_threshold) continue;
          const int var = model.add_variable(0, 1, 0.0, milp::VarType::Binary);
          c.xindex_[xid(net, l, q, k, layer)] = var;
          c.xvars_.push_back({l, q, k, static_cast<net::Layer>(layer)});
          top[static_cast<std::size_t>(l) * K + k] = q;
        }
      }
    }
  }
  if (c.xvars_.empty()) {
    finish();
    return;
  }

  // P_l^k only where link l has at least one x variable on channel k.
  c.pvar_.assign(static_cast<std::size_t>(L) * K, -1);
  for (const XVar& xv : c.xvars_) {
    int& pv = c.pvar_[static_cast<std::size_t>(xv.link) * K + xv.channel];
    if (pv < 0)
      pv = model.add_variable(0.0, pmax, 0.0, milp::VarType::Continuous);
  }
  // Links that may transmit on channel k (for interference sums / big-M).
  std::vector<std::vector<int>> channel_members(K);
  for (int l = 0; l < L; ++l) {
    for (int k = 0; k < K; ++k) {
      if (c.pvar(l, k) >= 0) channel_members[k].push_back(l);
    }
  }

  // --- SINR activation constraints (corrected (26)/(28)) ---------------
  for (std::size_t xi = 0; xi < c.xvars_.size(); ++xi) {
    const auto& xv = c.xvars_[xi];
    const int l = xv.link, q = xv.level, k = xv.channel;
    const double gamma = net.rate_level(q).sinr_threshold;
    const double rho = net.noise(l);

    double max_interf = 0.0;
    for (int other : channel_members[k]) {
      if (other == l) continue;
      max_interf += net.cross_gain(other, l, k) * pmax;
    }
    const double big_m = gamma * (rho + max_interf);

    // The x term, this link's power and every other member's power.
    std::vector<lp::Term> terms;
    terms.reserve(channel_members[k].size() + 1);
    const int xvar_index =
        c.xindex_[xid(net, l, q, k, static_cast<int>(xv.layer))];
    terms.emplace_back(xvar_index, big_m);
    terms.emplace_back(c.pvar(l, k), -net.direct_gain(l, k));
    for (int other : channel_members[k]) {
      if (other == l) continue;
      terms.emplace_back(c.pvar(other, k), gamma * net.cross_gain(other, l, k));
    }
    model.add_constraint(std::move(terms), lp::Sense::Le,
                         big_m - gamma * rho);
  }

  // --- Power/channel coupling: P_l^k <= Pmax * sum_q,layer x -----------
  // (and, under the fixed-power ablation, also >=, pinning active powers
  // to exactly Pmax).
  for (int l = 0; l < L; ++l) {
    for (int k = 0; k < K; ++k) {
      const int pv = c.pvar(l, k);
      if (pv < 0) continue;
      std::vector<lp::Term> terms;
      terms.emplace_back(pv, 1.0);
      for (int q = 0; q < Q; ++q) {
        for (int layer = 0; layer < 2; ++layer) {
          const int idx = c.xindex_[xid(net, l, q, k, layer)];
          if (idx >= 0) terms.emplace_back(idx, -pmax);
        }
      }
      if (options.fixed_power) {
        model.add_constraint(terms, lp::Sense::Eq, 0.0);
      } else {
        model.add_constraint(std::move(terms), lp::Sense::Le, 0.0);
      }
    }
  }

  // --- One (layer, q, k) per link: constraint (30) ---------------------
  // Under the layer-split extension this relaxes to one (q, k) per layer,
  // with different layers on different channels and a shared power budget.
  if (!options.allow_layer_split) {
    for (int l = 0; l < L; ++l) {
      std::vector<lp::Term> terms;
      for (int k = 0; k < K; ++k) {
        for (int q = 0; q < Q; ++q) {
          for (int layer = 0; layer < 2; ++layer) {
            const int idx = c.xindex_[xid(net, l, q, k, layer)];
            if (idx >= 0) terms.emplace_back(idx, 1.0);
          }
        }
      }
      if (!terms.empty())
        model.add_constraint(std::move(terms), lp::Sense::Le, 1.0);
    }
  } else {
    for (int l = 0; l < L; ++l) {
      // One configuration per layer.
      for (int layer = 0; layer < 2; ++layer) {
        std::vector<lp::Term> terms;
        for (int k = 0; k < K; ++k) {
          for (int q = 0; q < Q; ++q) {
            const int idx = c.xindex_[xid(net, l, q, k, layer)];
            if (idx >= 0) terms.emplace_back(idx, 1.0);
          }
        }
        if (!terms.empty())
          model.add_constraint(std::move(terms), lp::Sense::Le, 1.0);
      }
      // Layers must use distinct channels: per (link, channel) <= 1.
      for (int k = 0; k < K; ++k) {
        std::vector<lp::Term> terms;
        for (int q = 0; q < Q; ++q) {
          for (int layer = 0; layer < 2; ++layer) {
            const int idx = c.xindex_[xid(net, l, q, k, layer)];
            if (idx >= 0) terms.emplace_back(idx, 1.0);
          }
        }
        if (terms.size() > 1)
          model.add_constraint(std::move(terms), lp::Sense::Le, 1.0);
      }
      // Shared transmit budget: sum_k P_l^k <= Pmax.
      std::vector<lp::Term> power_terms;
      for (int k = 0; k < K; ++k) {
        if (c.pvar(l, k) >= 0) power_terms.emplace_back(c.pvar(l, k), 1.0);
      }
      if (power_terms.size() > 1)
        model.add_constraint(std::move(power_terms), lp::Sense::Le, pmax);
    }
  }

  // --- Per-node half-duplex: constraints (31)/(32) ---------------------
  std::map<int, std::vector<int>> node_links;  // node -> links touching it
  for (const net::Link& link : net.links()) {
    node_links[link.tx_node].push_back(link.id);
    node_links[link.rx_node].push_back(link.id);
  }
  for (const auto& [node, links_here] : node_links) {
    if (links_here.size() < 2) continue;  // implied by (30)
    if (!options.allow_layer_split) {
      std::vector<lp::Term> terms;
      for (int l : links_here) {
        for (int k = 0; k < K; ++k) {
          for (int q = 0; q < Q; ++q) {
            for (int layer = 0; layer < 2; ++layer) {
              const int idx = c.xindex_[xid(net, l, q, k, layer)];
              if (idx >= 0) terms.emplace_back(idx, 1.0);
            }
          }
        }
      }
      if (terms.size() > 1)
        model.add_constraint(std::move(terms), lp::Sense::Le, 1.0);
      continue;
    }
    // Layer split: a link's own two layers must not trip the node
    // constraint, so gate on a per-link activity indicator y_l >= every x.
    std::vector<lp::Term> node_row;
    for (int l : links_here) {
      auto [it, inserted] = c.link_indicator_.try_emplace(l, -1);
      if (inserted) {
        it->second =
            model.add_variable(0.0, 1.0, 0.0, milp::VarType::Continuous);
        for (int k = 0; k < K; ++k) {
          for (int q = 0; q < Q; ++q) {
            for (int layer = 0; layer < 2; ++layer) {
              const int idx = c.xindex_[xid(net, l, q, k, layer)];
              if (idx >= 0) {
                model.add_constraint({{idx, 1.0}, {it->second, -1.0}},
                                     lp::Sense::Le, 0.0);
              }
            }
          }
        }
      }
      node_row.emplace_back(it->second, 1.0);
    }
    if (node_row.size() > 1)
      model.add_constraint(std::move(node_row), lp::Sense::Le, 1.0);
  }

  // --- Pairwise conflict cuts -------------------------------------------
  // If two (link, level) choices cannot coexist on a channel even as a
  // bare pair under power control, no larger set containing them can
  // (interference is monotone), so x_i + x_j <= 1 is valid.  These clique
  // cuts tighten the big-M LP relaxation enormously.  conflict_staircase
  // finds them per link pair and channel; the rows go out channel by
  // channel, in (link, level) order of the first choice, then the second.
  {
    net::PowerSolver solver(net, 2);
    std::vector<int> first_conflict(static_cast<std::size_t>(L) * L * Q);
    const auto staircase = [&](int a, int b) {
      return std::span<int>(first_conflict)
          .subspan((static_cast<std::size_t>(a) * L + b) * Q, Q);
    };
    for (int k = 0; k < K; ++k) {
      const auto top_of = [&](int l) {
        return top[static_cast<std::size_t>(l) * K + k];
      };
      for (int a = 0; a < L; ++a) {
        if (top_of(a) < 0) continue;
        for (int b = a + 1; b < L; ++b) {
          if (top_of(b) < 0) continue;
          c.pair_power_solves_ += conflict_staircase(
              solver, k, a, top_of(a), b, top_of(b), staircase(a, b));
        }
      }
      for (int a = 0; a < L; ++a) {
        for (int qa = 0; qa <= top_of(a); ++qa) {
          for (int b = a + 1; b < L; ++b) {
            if (top_of(b) < 0) continue;
            for (int qb = staircase(a, b)[qa]; qb <= top_of(b); ++qb) {
              std::vector<lp::Term> terms;
              for (int layer = 0; layer < 2; ++layer) {
                const int ia = c.xindex_[xid(net, a, qa, k, layer)];
                const int ib = c.xindex_[xid(net, b, qb, k, layer)];
                if (ia >= 0) terms.emplace_back(ia, 1.0);
                if (ib >= 0) terms.emplace_back(ib, 1.0);
              }
              if (terms.size() > 1)
                model.add_constraint(std::move(terms), lp::Sense::Le, 1.0);
            }
          }
        }
      }
    }
  }
  finish();
}

PricingResult solve_pricing_milp(const net::Network& net,
                                 const std::vector<double>& lambda_hp,
                                 const std::vector<double>& lambda_lp,
                                 const MilpPricingOptions& options,
                                 const sched::Schedule* warm_start,
                                 PricingMilpCache* cache) {
  PricingResult out;

  PricingMilpCache local;
  PricingMilpCache& c = cache != nullptr ? *cache : local;
  if (!c.built_ || c.fixed_power_ != options.fixed_power ||
      c.allow_layer_split_ != options.allow_layer_split ||
      c.links_ != net.num_links() || c.channels_ != net.num_channels() ||
      c.levels_ != net.num_rate_levels()) {
    c.build(net, options);
  }

  // --- Activate under the current duals ---------------------------------
  // A (link, layer) with lambda <= 0 can only add interference, never
  // objective: instead of pruning the variable from the model (which would
  // force a rebuild per iteration), pin it to zero via its upper bound and
  // give the rest their objective coefficient lambda * bits/slot.
  int active = 0;
  for (std::size_t xi = 0; xi < c.xvars_.size(); ++xi) {
    const auto& xv = c.xvars_[xi];
    const int idx = c.xindex_[xid(net, xv.link, xv.level, xv.channel,
                                  static_cast<int>(xv.layer))];
    const double lambda = xv.layer == net::Layer::Hp ? lambda_hp[xv.link]
                                                     : lambda_lp[xv.link];
    lp::Variable& var = c.model_.variable(idx);
    if (lambda > 1e-15) {
      var.cost = lambda * net.bits_per_slot(xv.level);
      var.ub = 1.0;
      ++active;
    } else {
      var.cost = 0.0;
      var.ub = 0.0;
    }
  }

  if (active == 0) {
    out.found = false;
    out.psi = 0.0;
    out.psi_upper_bound = 0.0;
    out.exact = true;
    return out;
  }

  // --- Warm start -------------------------------------------------------
  // The all-zero point (nobody transmits) is always feasible, so seed it
  // even without a caller-supplied schedule: a truncated branch & bound
  // then always returns a valid incumbent (Psi >= 0) and dual bound.
  std::vector<double> warm(
      static_cast<std::size_t>(c.model_.num_variables()), 0.0);
  const bool have_warm = true;
  if (warm_start != nullptr && !warm_start->empty()) {
    for (const sched::Transmission& tx : warm_start->transmissions()) {
      const int idx = c.xindex_[xid(net, tx.link, tx.rate_level, tx.channel,
                                    static_cast<int>(tx.layer))];
      // Drop transmissions on pruned or deactivated (lambda <= 0)
      // variables; keeping them would make the seed infeasible.
      if (idx < 0 || c.model_.variable(idx).ub < 0.5) continue;
      warm[idx] = 1.0;
      warm[c.pvar(tx.link, tx.channel)] = tx.power_watts;
      const auto y = c.link_indicator_.find(tx.link);
      if (y != c.link_indicator_.end()) warm[y->second] = 1.0;
    }
  }

  // --- Solve ------------------------------------------------------------
  milp::MilpOptions milp_opts = options.milp;
  if (!std::isnan(options.target_psi))
    milp_opts.target_objective = options.target_psi;
  const milp::MilpSolution sol =
      milp::solve_milp(c.model_, milp_opts, have_warm ? &warm : nullptr);
  out.milp_nodes = sol.nodes;
  out.milp_lp_pivots = sol.lp_pivots;

  if (!sol.has_solution()) {
    MMWAVE_LOG_WARN << "pricing MILP returned " << milp::to_string(sol.status);
    out.psi = 0.0;
    out.psi_upper_bound = sol.status == milp::MilpStatus::NoSolution
                              ? sol.best_bound
                              : std::numeric_limits<double>::infinity();
    out.exact = false;
    out.status = sol.error.ok()
                     ? common::Status::Error(
                           common::ErrorCode::kNumericalBreakdown,
                           std::string("pricing MILP returned ") +
                               milp::to_string(sol.status))
                     : sol.error;
    return out;
  }

  out.psi = sol.objective;
  out.psi_upper_bound = sol.status == milp::MilpStatus::Optimal
                            ? sol.objective
                            : sol.best_bound;
  // A Cutoff exit is as good a certificate as an optimal one: its bound
  // proves that no schedule beats the cutoff.
  out.exact = sol.status == milp::MilpStatus::Optimal ||
              sol.status == milp::MilpStatus::Cutoff;
  out.found = out.psi > 1.0 + 1e-7;
  // A TargetReached exit is a deliberate early stop, not a failure; only a
  // genuine limit truncation is surfaced to the driver.
  if (sol.status == milp::MilpStatus::Feasible) out.status = sol.error;

  // --- Extract the schedule ---------------------------------------------
  sched::Schedule schedule;
  for (std::size_t xi = 0; xi < c.xvars_.size(); ++xi) {
    const auto& xv = c.xvars_[xi];
    const int idx = c.xindex_[xid(net, xv.link, xv.level, xv.channel,
                                  static_cast<int>(xv.layer))];
    if (sol.x[idx] < 0.5) continue;
    schedule.add({xv.link, xv.layer, xv.level, xv.channel,
                  sol.x[c.pvar(xv.link, xv.channel)]});
  }

  if (!options.fixed_power && !schedule.empty()) {
    // Re-minimize powers channel by channel (the MILP only needs
    // feasibility; minimal powers are the natural operating point and leave
    // headroom).  The active set is feasible so the Perron solve should
    // succeed — keep MILP powers if it does not.
    std::map<int, std::vector<const sched::Transmission*>> by_channel;
    for (const sched::Transmission& tx : schedule.transmissions())
      by_channel[tx.channel].push_back(&tx);
    sched::Schedule cleaned;
    for (const auto& [k, txs] : by_channel) {
      std::vector<int> links;
      std::vector<double> gammas;
      for (const auto* tx : txs) {
        links.push_back(tx->link);
        gammas.push_back(net.rate_level(tx->rate_level).sinr_threshold);
      }
      const net::PowerControlResult pc =
          net::min_power_assignment(net, k, links, gammas);
      for (std::size_t i = 0; i < txs.size(); ++i) {
        sched::Transmission tx = *txs[i];
        if (pc.feasible) tx.power_watts = pc.powers[i];
        cleaned.add(tx);
      }
    }
    schedule = std::move(cleaned);
  }
  out.schedule = std::move(schedule);
  return out;
}

}  // namespace mmwave::core

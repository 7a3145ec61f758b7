#include "core/pricing_greedy.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <span>
#include <utility>

#include "mmwave/power_control.h"

namespace mmwave::core {
namespace {

struct Candidate {
  int link;
  net::Layer layer;
  double lambda;
  double potential;  // lambda * u^max_feasible_solo
};

/// One channel's active set in admission order, grown and shrunk in place.
struct ChannelMembers {
  std::vector<int> links;
  std::vector<int> levels;     // ladder index per member
  std::vector<double> gammas;  // SINR threshold of that level
};

/// Greedy packing state, sized once per pricing call and reset by every
/// pack(): a trial admission pushes a member (or bumps its level) and
/// undoes it when the power kernel rejects the set.
class Packer {
 public:
  explicit Packer(const net::Network& net)
      : net_(net),
        solver_(net, static_cast<std::size_t>(net.num_links())),
        channel_order_(static_cast<std::size_t>(net.num_links()) *
                       net.num_channels()),
        channels_(net.num_channels()),
        layer_of_(net.num_links(), net::Layer::Hp) {
    const int K = net.num_channels();
    // Channels in descending direct-gain order, per link.
    for (int l = 0; l < net.num_links(); ++l) {
      int* const ks =
          channel_order_.data() + static_cast<std::ptrdiff_t>(l) * K;
      for (int k = 0; k < K; ++k) ks[k] = k;
      std::sort(ks, ks + K, [&](int a, int b) {
        return net.direct_gain(l, a) > net.direct_gain(l, b);
      });
    }
  }

  /// Builds one packing given a rotated candidate order; returns the
  /// schedule and its Psi.  `fixed_power` admits by the everyone-at-Pmax
  /// check instead of minimum-power control.
  std::pair<sched::Schedule, double> pack(
      const std::vector<Candidate>& order,
      const std::vector<double>& lambda_hp,
      const std::vector<double>& lambda_lp, bool fixed_power) {
    fixed_power_ = fixed_power;
    for (ChannelMembers& ch : channels_) {
      ch.links.clear();
      ch.levels.clear();
      ch.gammas.clear();
    }
    busy_node_.assign(net_.num_nodes(), false);
    used_link_.assign(net_.num_links(), false);

    for (const Candidate& cand : order) {
      if (used_link_[cand.link]) continue;  // one layer per link
      try_admit(cand);
    }

    // Upgrade pass: bump each member's level while the set stays feasible.
    const int Q = net_.num_rate_levels();
    for (int k = 0; k < net_.num_channels(); ++k) {
      ChannelMembers& ch = channels_[k];
      bool improved = true;
      while (improved) {
        improved = false;
        for (std::size_t i = 0; i < ch.links.size(); ++i) {
          if (ch.levels[i] + 1 >= Q) continue;
          set_level(ch, i, ch.levels[i] + 1);
          if (feasible(k)) {
            improved = true;
          } else {
            set_level(ch, i, ch.levels[i] - 1);
          }
        }
      }
    }

    // Assemble the schedule with the powers of each final set.
    sched::Schedule schedule;
    double psi = 0.0;
    for (int k = 0; k < net_.num_channels(); ++k) {
      const ChannelMembers& ch = channels_[k];
      if (ch.links.empty()) continue;
      if (!feasible(k)) continue;  // should not happen; drop defensively
      const std::span<const double> powers = solver_.powers();
      for (std::size_t i = 0; i < ch.links.size(); ++i) {
        const int l = ch.links[i];
        const net::Layer layer = layer_of_[l];
        schedule.add({l, layer, ch.levels[i], k, powers[i]});
        const double lambda =
            layer == net::Layer::Hp ? lambda_hp[l] : lambda_lp[l];
        psi += lambda * net_.bits_per_slot(ch.levels[i]);
      }
    }
    return {std::move(schedule), psi};
  }

 private:
  void set_level(ChannelMembers& ch, std::size_t i, int q) const {
    ch.levels[i] = q;
    ch.gammas[i] = net_.rate_level(q).sinr_threshold;
  }

  /// Feasibility of channel k's current set: minimum-power control by
  /// default, everyone-at-Pmax when power adaptation is ablated away.
  bool feasible(int k) {
    const ChannelMembers& ch = channels_[k];
    return fixed_power_ ? solver_.fixed_power(k, ch.links, ch.gammas)
                        : solver_.min_power(k, ch.links, ch.gammas);
  }

  /// Admits `cand` on the first channel (descending direct gain) and the
  /// highest level (more value per slot) that keep the set feasible.
  bool try_admit(const Candidate& cand) {
    const net::Link& link = net_.link(cand.link);
    if (busy_node_[link.tx_node] || busy_node_[link.rx_node]) return false;
    const int K = net_.num_channels();
    const int* ks =
        channel_order_.data() + static_cast<std::ptrdiff_t>(cand.link) * K;
    for (int i = 0; i < K; ++i) {
      const int k = ks[i];
      ChannelMembers& ch = channels_[k];
      ch.links.push_back(cand.link);
      ch.levels.push_back(0);
      ch.gammas.push_back(0.0);
      for (int q = net_.num_rate_levels() - 1; q >= 0; --q) {
        set_level(ch, ch.links.size() - 1, q);
        if (!feasible(k)) continue;
        busy_node_[link.tx_node] = true;
        busy_node_[link.rx_node] = true;
        used_link_[cand.link] = true;
        layer_of_[cand.link] = cand.layer;
        return true;
      }
      ch.links.pop_back();
      ch.levels.pop_back();
      ch.gammas.pop_back();
    }
    return false;
  }

  const net::Network& net_;
  net::PowerSolver solver_;
  std::vector<int> channel_order_;  // link l's channels at [l * K, l * K + K)
  std::vector<ChannelMembers> channels_;
  std::vector<bool> busy_node_;
  std::vector<bool> used_link_;
  std::vector<net::Layer> layer_of_;  // layer of each admitted link
  bool fixed_power_ = false;
};

}  // namespace

PricingResult solve_pricing_greedy(const net::Network& net,
                                   const std::vector<double>& lambda_hp,
                                   const std::vector<double>& lambda_lp,
                                   const GreedyPricingOptions& options) {
  PricingResult out;
  out.psi_upper_bound = std::numeric_limits<double>::infinity();
  out.exact = false;

  // Candidate pool: every (link, layer) with a positive dual.
  std::vector<Candidate> pool;
  for (int l = 0; l < net.num_links(); ++l) {
    for (int layer = 0; layer < 2; ++layer) {
      const double lambda = layer == 0 ? lambda_hp[l] : lambda_lp[l];
      if (lambda <= 1e-15) continue;
      int best_q = -1;
      for (int k = 0; k < net.num_channels(); ++k)
        best_q = std::max(best_q, net.best_solo_level(l, k));
      if (best_q < 0) continue;
      pool.push_back({l, static_cast<net::Layer>(layer), lambda,
                      lambda * net.bits_per_slot(best_q)});
    }
  }
  if (pool.empty()) return out;

  std::sort(pool.begin(), pool.end(), [](const Candidate& a,
                                         const Candidate& b) {
    return a.potential > b.potential;
  });

  const int restarts =
      std::max(1, std::min<int>(options.restarts,
                                static_cast<int>(pool.size())));
  Packer packer(net);
  double best_psi = -1.0;
  sched::Schedule best_schedule;
  for (int r = 0; r < restarts; ++r) {
    // Rotation r: start from the r-th candidate, keep the rest in order.
    std::vector<Candidate> order;
    order.reserve(pool.size());
    for (std::size_t i = 0; i < pool.size(); ++i)
      order.push_back(pool[(i + r) % pool.size()]);
    auto [schedule, psi] =
        packer.pack(order, lambda_hp, lambda_lp, options.fixed_power);
    if (psi > best_psi) {
      best_psi = psi;
      best_schedule = std::move(schedule);
    }
    if (!options.fixed_power) {
      // Fixed-power packings are feasible adaptive schedules too, and the
      // two greedy admission orders explore different corners — keep the
      // better of both so disabling power adaptation can never "win" by
      // heuristic luck.
      auto [fp_schedule, fp_psi] =
          packer.pack(order, lambda_hp, lambda_lp, /*fixed_power=*/true);
      if (fp_psi > best_psi) {
        best_psi = fp_psi;
        best_schedule = std::move(fp_schedule);
      }
    }
  }

  out.schedule = std::move(best_schedule);
  out.psi = best_psi;
  out.found = out.psi > 1.0 + 1e-7;
  return out;
}

}  // namespace mmwave::core

// Focused properties of the greedy pricing heuristic.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <memory>

#include "core/column_generation.h"
#include "core/master.h"
#include "core/pricing_greedy.h"
#include "core/pricing_milp.h"

namespace mmwave::core {
namespace {

net::Network make_net(std::uint64_t seed, int links = 6, int channels = 2,
                      double gamma_scale = 1.0) {
  common::Rng rng(seed);
  net::NetworkParams p;
  p.num_links = links;
  p.num_channels = channels;
  p.sinr_thresholds = {0.1 * gamma_scale, 0.2 * gamma_scale,
                       0.3 * gamma_scale};
  return net::Network::table_i(p, rng);
}

MasterSolution tdma_duals(const net::Network& net) {
  std::vector<video::LinkDemand> demands(net.num_links(), {1000.0, 800.0});
  MasterProblem master(net, demands);
  for (const auto& s : tdma_initial_columns(net)) master.add_column(s);
  auto sol = master.solve();
  EXPECT_TRUE(sol.ok);
  return sol;
}

/// FNV-1a over every transmission's (link, layer, level, channel, power
/// bits), in schedule order.
std::uint64_t schedule_digest(const sched::Schedule& schedule) {
  std::uint64_t h = 14695981039346656037ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (v >> (8 * byte)) & 0xffU;
      h *= 1099511628211ULL;
    }
  };
  for (const sched::Transmission& tx : schedule.transmissions()) {
    std::uint64_t power_bits = 0;
    std::memcpy(&power_bits, &tx.power_watts, sizeof power_bits);
    mix(static_cast<std::uint64_t>(tx.link));
    mix(static_cast<std::uint64_t>(tx.layer));
    mix(static_cast<std::uint64_t>(tx.rate_level));
    mix(static_cast<std::uint64_t>(tx.channel));
    mix(power_bits);
  }
  return h;
}

net::Network ladder_net(int links, int channels, int levels,
                        double gamma_scale, std::uint64_t seed,
                        bool geometric) {
  common::Rng rng(seed);
  net::NetworkParams p;
  p.num_links = links;
  p.num_channels = channels;
  p.sinr_thresholds.resize(levels);
  for (int q = 0; q < levels; ++q)
    p.sinr_thresholds[q] = 0.1 * (q + 1) * gamma_scale;
  if (!geometric) return net::Network::table_i(p, rng);
  p.noise_watts = 1e-4;  // geometric gains need a real link margin
  auto model = std::make_unique<net::GeometricChannelModel>(
      links, channels, p.noise_watts, net::GeometricChannelConfig{}, rng);
  return net::Network(p, std::move(model));
}

struct GreedyRecord {
  double psi;
  std::uint64_t digest;
};

TEST(GreedyPricing, AnswersMatchRecordedValues) {
  // Four instance shapes, each priced at its TDMA-master duals and at two
  // seeded random dual vectors (a fifth of the entries zero).  Psi and the
  // schedule, power bits included, must not move.
  struct Shape {
    const char* name;
    int links, channels, levels;
    double gamma_scale;
    std::uint64_t seed;
    bool geometric;
    GreedyRecord recorded[3];  // TDMA duals, random duals 1 and 2
  };
  const Shape shapes[] = {
      {"bnb bank L=7 K=3 Q=4 gamma x3", 7, 3, 4, 3.0, 7875207928476110273ULL,
       false,
       {{6.5961053227134467, 0x66a1716657a45557ULL},
        {7.8590465530184961, 0x431952627f2824c8ULL},
        {10.565208655364641, 0xb11bc7262b527689ULL}}},
      {"stream-shaped L=8 K=5 Q=5", 8, 5, 5, 1.0, 0x5E55101DULL, false,
       {{8, 0x59c83d9147fffbc3ULL},
        {4.577630852724341, 0x861b46564d280574ULL},
        {6.8417163769472715, 0x78e3120d5c257376ULL}}},
      {"certify-shaped L=12 K=5 Q=5", 12, 5, 5, 1.0, 0xCE271F1EDULL, false,
       {{12, 0x5cf3267acf4b94c2ULL},
        {7.3781127929663546, 0x36d424647e0cff24ULL},
        {7.2232901415490156, 0xa7f61464b3f18784ULL}}},
      {"geometric L=10 K=3 Q=5", 10, 3, 5, 1.0, 10, true,
       {{10, 0xb6756e65238b88edULL},
        {6.7716657604157282, 0x51534640597a2c23ULL},
        {8.0273653719333566, 0xfae90550980705beULL}}},
  };
  for (const Shape& shape : shapes) {
    const net::Network net =
        ladder_net(shape.links, shape.channels, shape.levels,
                   shape.gamma_scale, shape.seed, shape.geometric);
    const MasterSolution mp = tdma_duals(net);
    std::vector<std::vector<double>> hp{mp.lambda_hp}, lp{mp.lambda_lp};
    common::Rng rng(shape.seed ^ 0xD0A1ULL);
    for (int r = 0; r < 2; ++r) {
      hp.emplace_back(net.num_links());
      lp.emplace_back(net.num_links());
      for (int l = 0; l < net.num_links(); ++l) {
        hp.back()[l] = rng.bernoulli(0.2) ? 0.0 : rng.uniform(0.0, 1e-3);
        lp.back()[l] = rng.bernoulli(0.2) ? 0.0 : rng.uniform(0.0, 1e-3);
      }
    }
    for (int d = 0; d < 3; ++d) {
      const PricingResult r = solve_pricing_greedy(net, hp[d], lp[d]);
      const std::uint64_t digest = schedule_digest(r.schedule);
      char got[96];
      std::snprintf(got, sizeof got, "{%.17g, 0x%016llxULL}", r.psi,
                    static_cast<unsigned long long>(digest));
      EXPECT_EQ(r.psi, shape.recorded[d].psi)
          << shape.name << ", duals " << d << ": got " << got;
      EXPECT_EQ(digest, shape.recorded[d].digest)
          << shape.name << ", duals " << d << ": got " << got;
      EXPECT_FALSE(r.schedule.empty()) << shape.name << ", duals " << d;
    }
  }
}

TEST(GreedyPricing, MoreRestartsNeverWorse) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const auto net = make_net(seed + 70, 8, 2, 3.0);
    const auto mp = tdma_duals(net);
    GreedyPricingOptions one;
    one.restarts = 1;
    GreedyPricingOptions five;
    five.restarts = 5;
    const auto r1 = solve_pricing_greedy(net, mp.lambda_hp, mp.lambda_lp, one);
    const auto r5 =
        solve_pricing_greedy(net, mp.lambda_hp, mp.lambda_lp, five);
    EXPECT_GE(r5.psi, r1.psi - 1e-12) << "seed " << seed;
  }
}

TEST(GreedyPricing, FixedPowerSchedulesAtPmax) {
  const auto net = make_net(80, 6, 2);
  const auto mp = tdma_duals(net);
  GreedyPricingOptions opts;
  opts.fixed_power = true;
  const auto r = solve_pricing_greedy(net, mp.lambda_hp, mp.lambda_lp, opts);
  for (const auto& tx : r.schedule.transmissions()) {
    EXPECT_DOUBLE_EQ(tx.power_watts, net.params().p_max_watts);
  }
  const auto check = sched::validate_schedule(net, r.schedule);
  EXPECT_TRUE(check.ok) << check.reason;
}

TEST(GreedyPricing, AdaptiveDominatesFixedPower) {
  // The adaptive pricer evaluates the fixed-power packing internally, so
  // its best Psi is at least the fixed-power pricer's.
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const auto net = make_net(seed + 90, 7, 2, 3.0);
    const auto mp = tdma_duals(net);
    GreedyPricingOptions fixed;
    fixed.fixed_power = true;
    const auto adaptive =
        solve_pricing_greedy(net, mp.lambda_hp, mp.lambda_lp);
    const auto pmax_only =
        solve_pricing_greedy(net, mp.lambda_hp, mp.lambda_lp, fixed);
    EXPECT_GE(adaptive.psi, pmax_only.psi - 1e-9) << "seed " << seed;
  }
}

TEST(GreedyPricing, RespectsNodeExclusivity) {
  const auto net = make_net(100, 8, 3);
  const auto mp = tdma_duals(net);
  const auto r = solve_pricing_greedy(net, mp.lambda_hp, mp.lambda_lp);
  std::set<int> nodes;
  for (const auto& tx : r.schedule.transmissions()) {
    const net::Link& link = net.link(tx.link);
    EXPECT_TRUE(nodes.insert(link.tx_node).second);
    EXPECT_TRUE(nodes.insert(link.rx_node).second);
  }
}

TEST(GreedyPricing, OneLayerPerLink) {
  const auto net = make_net(110, 8, 3);
  const auto mp = tdma_duals(net);
  const auto r = solve_pricing_greedy(net, mp.lambda_hp, mp.lambda_lp);
  std::set<int> links;
  for (const auto& tx : r.schedule.transmissions()) {
    EXPECT_TRUE(links.insert(tx.link).second)
        << "link " << tx.link << " scheduled twice";
  }
}

TEST(GreedyPricing, TdmaDualsYieldImprovingColumnWhenReusePossible) {
  // With TDMA duals and multiple channels, packing two links already gives
  // Psi ~ 2 > 1, so the heuristic should virtually always find a column on
  // friendly instances.
  int found = 0;
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const auto net = make_net(seed + 120, 6, 3);
    const auto mp = tdma_duals(net);
    const auto r = solve_pricing_greedy(net, mp.lambda_hp, mp.lambda_lp);
    if (r.found) ++found;
  }
  EXPECT_GE(found, 8);
}

TEST(MilpPricing, LayerSplitPsiAtLeastStrict) {
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const auto net = make_net(seed + 130, 4, 2, 3.0);
    const auto mp = tdma_duals(net);
    const auto strict = solve_pricing_milp(net, mp.lambda_hp, mp.lambda_lp);
    MilpPricingOptions split;
    split.allow_layer_split = true;
    const auto ext =
        solve_pricing_milp(net, mp.lambda_hp, mp.lambda_lp, split);
    if (!strict.exact || !ext.exact) continue;
    EXPECT_GE(ext.psi, strict.psi - 1e-7) << "seed " << seed;
    const auto check = sched::validate_schedule(
        net, ext.schedule, 1e-7, /*allow_layer_split=*/true);
    EXPECT_TRUE(check.ok) << check.reason;
  }
}

TEST(MilpPricing, FixedPowerPsiAtMostAdaptive) {
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const auto net = make_net(seed + 140, 4, 2, 3.0);
    const auto mp = tdma_duals(net);
    const auto adaptive = solve_pricing_milp(net, mp.lambda_hp, mp.lambda_lp);
    MilpPricingOptions fixed;
    fixed.fixed_power = true;
    const auto pmax_only =
        solve_pricing_milp(net, mp.lambda_hp, mp.lambda_lp, fixed);
    if (!adaptive.exact || !pmax_only.exact) continue;
    EXPECT_LE(pmax_only.psi, adaptive.psi + 1e-7) << "seed " << seed;
  }
}

}  // namespace
}  // namespace mmwave::core

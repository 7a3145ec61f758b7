#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "core/column_generation.h"
#include "mmwave/channel.h"
#include "mmwave/power_control.h"
#include "core/master.h"
#include "core/pricing_greedy.h"
#include "core/pricing_milp.h"

namespace mmwave::core {
namespace {

net::Network make_net(std::uint64_t seed, int links = 4, int channels = 2,
                      int levels = 3) {
  common::Rng rng(seed);
  net::NetworkParams p;
  p.num_links = links;
  p.num_channels = channels;
  p.sinr_thresholds.resize(levels);
  for (int q = 0; q < levels; ++q)
    p.sinr_thresholds[q] = 0.1 * (q + 1);
  return net::Network::table_i(p, rng);
}

/// Duals from a TDMA-initialized master on uniform demands.
MasterSolution tdma_duals(const net::Network& net,
                          const std::vector<video::LinkDemand>& demands) {
  MasterProblem master(net, demands);
  for (const auto& s : tdma_initial_columns(net)) master.add_column(s);
  auto sol = master.solve();
  EXPECT_TRUE(sol.ok);
  return sol;
}

TEST(GreedyPricing, ProducesValidSchedules) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const auto net = make_net(seed);
    std::vector<video::LinkDemand> demands(net.num_links(), {1000.0, 500.0});
    const auto mp = tdma_duals(net, demands);
    const auto pr =
        solve_pricing_greedy(net, mp.lambda_hp, mp.lambda_lp);
    const auto check = sched::validate_schedule(net, pr.schedule);
    EXPECT_TRUE(check.ok) << "seed " << seed << ": " << check.reason;
  }
}

TEST(GreedyPricing, PsiMatchesScheduleValue) {
  const auto net = make_net(3);
  std::vector<video::LinkDemand> demands(net.num_links(), {1000.0, 500.0});
  const auto mp = tdma_duals(net, demands);
  const auto pr = solve_pricing_greedy(net, mp.lambda_hp, mp.lambda_lp);
  double psi = 0.0;
  for (const auto& tx : pr.schedule.transmissions()) {
    const double lambda = tx.layer == net::Layer::Hp
                              ? mp.lambda_hp[tx.link]
                              : mp.lambda_lp[tx.link];
    psi += lambda * net.bits_per_slot(tx.rate_level);
  }
  EXPECT_NEAR(pr.psi, psi, 1e-9);
}

TEST(GreedyPricing, NoCertificate) {
  const auto net = make_net(4);
  std::vector<video::LinkDemand> demands(net.num_links(), {1000.0, 500.0});
  const auto mp = tdma_duals(net, demands);
  const auto pr = solve_pricing_greedy(net, mp.lambda_hp, mp.lambda_lp);
  EXPECT_FALSE(pr.exact);
  EXPECT_TRUE(std::isinf(pr.psi_upper_bound));
}

TEST(GreedyPricing, ZeroDualsFindNothing) {
  const auto net = make_net(5);
  std::vector<double> zeros(net.num_links(), 0.0);
  const auto pr = solve_pricing_greedy(net, zeros, zeros);
  EXPECT_FALSE(pr.found);
}

TEST(MilpPricing, ExactAndAtLeastGreedy) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const auto net = make_net(seed, 3, 2, 2);
    std::vector<video::LinkDemand> demands(net.num_links(), {1000.0, 500.0});
    const auto mp = tdma_duals(net, demands);
    const auto greedy =
        solve_pricing_greedy(net, mp.lambda_hp, mp.lambda_lp);
    const auto exact =
        solve_pricing_milp(net, mp.lambda_hp, mp.lambda_lp);
    ASSERT_TRUE(exact.exact) << "seed " << seed;
    EXPECT_GE(exact.psi, greedy.psi - 1e-7) << "seed " << seed;
    EXPECT_NEAR(exact.psi_upper_bound, exact.psi, 1e-9);
    const auto check = sched::validate_schedule(net, exact.schedule);
    EXPECT_TRUE(check.ok) << "seed " << seed << ": " << check.reason;
  }
}

TEST(MilpPricing, PsiConsistentWithSchedule) {
  const auto net = make_net(11, 3, 2, 2);
  std::vector<video::LinkDemand> demands(net.num_links(), {1000.0, 500.0});
  const auto mp = tdma_duals(net, demands);
  const auto pr = solve_pricing_milp(net, mp.lambda_hp, mp.lambda_lp);
  double psi = 0.0;
  for (const auto& tx : pr.schedule.transmissions()) {
    const double lambda = tx.layer == net::Layer::Hp
                              ? mp.lambda_hp[tx.link]
                              : mp.lambda_lp[tx.link];
    psi += lambda * net.bits_per_slot(tx.rate_level);
  }
  EXPECT_NEAR(pr.psi, psi, 1e-6 * (1.0 + psi));
}

TEST(MilpPricing, BeatsTdmaDualsImpliesImprovingColumn) {
  // With TDMA duals, a multi-link schedule should usually price out
  // (Psi > 1).  At minimum, Psi >= 1 because the best TDMA column itself
  // already achieves Psi ~= 1 on a tight row.
  const auto net = make_net(12, 4, 2, 3);
  std::vector<video::LinkDemand> demands(net.num_links(), {1000.0, 500.0});
  const auto mp = tdma_duals(net, demands);
  const auto pr = solve_pricing_milp(net, mp.lambda_hp, mp.lambda_lp);
  EXPECT_GE(pr.psi, 1.0 - 1e-6);
}

TEST(MilpPricing, ZeroDualsGiveEmptyResult) {
  const auto net = make_net(13);
  std::vector<double> zeros(net.num_links(), 0.0);
  const auto pr = solve_pricing_milp(net, zeros, zeros);
  EXPECT_FALSE(pr.found);
  EXPECT_TRUE(pr.exact);
  EXPECT_NEAR(pr.psi_upper_bound, 0.0, 1e-12);
}

TEST(MilpPricing, WarmStartDoesNotChangeOptimum) {
  const auto net = make_net(14, 3, 2, 2);
  std::vector<video::LinkDemand> demands(net.num_links(), {1000.0, 500.0});
  const auto mp = tdma_duals(net, demands);
  const auto greedy =
      solve_pricing_greedy(net, mp.lambda_hp, mp.lambda_lp);
  const auto cold = solve_pricing_milp(net, mp.lambda_hp, mp.lambda_lp);
  const auto warm = solve_pricing_milp(net, mp.lambda_hp, mp.lambda_lp, {},
                                       &greedy.schedule);
  ASSERT_TRUE(cold.exact);
  ASSERT_TRUE(warm.exact);
  EXPECT_NEAR(cold.psi, warm.psi, 1e-6 * (1.0 + cold.psi));
}

TEST(MilpPricing, TargetPsiStopsEarlyWithImprovingColumn) {
  const auto net = make_net(15, 4, 2, 3);
  std::vector<video::LinkDemand> demands(net.num_links(), {1000.0, 500.0});
  const auto mp = tdma_duals(net, demands);
  MilpPricingOptions opts;
  opts.target_psi = 1.0 + 1e-6;
  const auto pr = solve_pricing_milp(net, mp.lambda_hp, mp.lambda_lp, opts);
  if (pr.found) {
    EXPECT_GT(pr.psi, 1.0);
    const auto check = sched::validate_schedule(net, pr.schedule);
    EXPECT_TRUE(check.ok) << check.reason;
  }
}

// Column generation stops its exact-pricing calls once the bound proves
// Psi <= 1 + eps.  That must not change the verdict: on random duals the
// cut and the uncut MILP agree on whether a column with Psi > 1 + eps
// exists, an existing one is found exactly as without the cutoff, and a
// "none" comes with a bound that proves it.  Psi* is linear in the duals,
// so rescaling random duals by r / Psi* puts the optimum at r, around 1.
TEST(MilpPricing, CutoffAgreesWithUncutOnRandomDuals) {
  const double eps = kCgEps;
  common::Rng rng(0xD0A15);
  int improving = 0;
  int none = 0;
  int stopped_early = 0;
  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    const auto net = make_net(seed + 200,
                              static_cast<int>(rng.uniform_int(3, 5)),
                              static_cast<int>(rng.uniform_int(1, 3)), 3);
    std::vector<video::LinkDemand> demands(net.num_links(), {1000.0, 500.0});
    auto mp = tdma_duals(net, demands);
    for (double& v : mp.lambda_hp) v *= rng.uniform(0.5, 1.5);
    for (double& v : mp.lambda_lp) v *= rng.uniform(0.5, 1.5);
    const auto base = solve_pricing_milp(net, mp.lambda_hp, mp.lambda_lp);
    ASSERT_TRUE(base.exact) << "seed " << seed;
    if (base.psi <= 0.0) continue;
    const double scale = rng.uniform(0.7, 1.3) / base.psi;
    for (double& v : mp.lambda_hp) v *= scale;
    for (double& v : mp.lambda_lp) v *= scale;

    const auto uncut = solve_pricing_milp(net, mp.lambda_hp, mp.lambda_lp);
    MilpPricingOptions opts;
    opts.milp.cutoff = 1.0 + eps;
    const auto cut =
        solve_pricing_milp(net, mp.lambda_hp, mp.lambda_lp, opts);
    ASSERT_TRUE(uncut.exact) << "seed " << seed;
    ASSERT_TRUE(cut.exact) << "seed " << seed;
    EXPECT_LE(cut.milp_nodes, uncut.milp_nodes) << "seed " << seed;
    if (cut.milp_nodes < uncut.milp_nodes) ++stopped_early;
    const bool exists = uncut.psi > 1.0 + eps;
    EXPECT_EQ(cut.psi > 1.0 + eps, exists) << "seed " << seed;
    EXPECT_GE(cut.psi_upper_bound, uncut.psi - 1e-9) << "seed " << seed;
    if (exists) {
      ++improving;
      EXPECT_EQ(cut.psi, uncut.psi) << "seed " << seed;
      EXPECT_EQ(cut.milp_nodes, uncut.milp_nodes) << "seed " << seed;
    } else {
      ++none;
      EXPECT_LE(cut.psi_upper_bound, 1.0 + eps) << "seed " << seed;
    }
  }
  EXPECT_GT(improving, 5);
  EXPECT_GT(none, 5);
  EXPECT_GT(stopped_early, 0) << "the cutoff never shortened a search";
}

TEST(MilpPricing, CleanPowersAreMinimal) {
  const auto net = make_net(16, 3, 2, 2);
  std::vector<video::LinkDemand> demands(net.num_links(), {1000.0, 500.0});
  const auto mp = tdma_duals(net, demands);
  MilpPricingOptions opts;
  const auto pr = solve_pricing_milp(net, mp.lambda_hp, mp.lambda_lp, opts);
  // Minimal powers make every SINR constraint tight per channel group.
  std::map<int, std::vector<const sched::Transmission*>> by_channel;
  for (const auto& tx : pr.schedule.transmissions())
    by_channel[tx.channel].push_back(&tx);
  for (const auto& [k, txs] : by_channel) {
    std::vector<int> links;
    std::vector<double> powers;
    for (const auto* tx : txs) {
      links.push_back(tx->link);
      powers.push_back(tx->power_watts);
    }
    const auto sinr = net::achieved_sinr(net, k, links, powers);
    for (std::size_t i = 0; i < txs.size(); ++i) {
      EXPECT_NEAR(sinr[i],
                  net.rate_level(txs[i]->rate_level).sinr_threshold,
                  1e-6);
    }
  }
}

/// What the skeleton build's conflict discovery finds on one network.
struct ConflictCount {
  std::int64_t solves = 0;     // power solves of the staircase walks
  std::int64_t pairs = 0;      // (link, level) pairs, one solve each
  std::int64_t conflicts = 0;  // conflicting ones
};

/// Runs conflict_staircase over every channel and link pair with
/// variables (levels 0..best_solo_level, the skeleton's prune), checks
/// each walk's solve bound, and compares its staircase with a brute-force
/// min_power_assignment of every (link, level) pair.
ConflictCount check_staircases(const net::Network& net, const char* what) {
  ConflictCount count;
  net::PowerSolver solver(net, 2);
  for (int k = 0; k < net.num_channels(); ++k) {
    for (int a = 0; a < net.num_links(); ++a) {
      const int top_a = net.best_solo_level(a, k);
      if (top_a < 0) continue;
      for (int b = a + 1; b < net.num_links(); ++b) {
        const int top_b = net.best_solo_level(b, k);
        if (top_b < 0) continue;
        std::vector<int> first(top_a + 1, -1);
        const int solves =
            conflict_staircase(solver, k, a, top_a, b, top_b, first);
        EXPECT_LE(solves, (top_a + 1) + (top_b + 1) + 1)
            << what << ": channel " << k << " links " << a << ", " << b;
        count.solves += solves;
        for (int qa = 0; qa <= top_a; ++qa) {
          for (int qb = 0; qb <= top_b; ++qb) {
            const bool conflict = !net::min_power_assignment(
                                       net, k, {a, b},
                                       {net.rate_level(qa).sinr_threshold,
                                        net.rate_level(qb).sinr_threshold})
                                       .feasible;
            ++count.pairs;
            count.conflicts += conflict;
            EXPECT_EQ(conflict, qb >= first[qa])
                << what << ": channel " << k << " (" << a << ", " << qa
                << ") x (" << b << ", " << qb << ")";
          }
        }
      }
    }
  }
  // The skeleton build makes exactly these walks.
  PricingMilpCache cache;
  const std::vector<double> zero(net.num_links(), 0.0);
  solve_pricing_milp(net, zero, zero, {}, nullptr, &cache);
  EXPECT_EQ(cache.pair_power_solves(), count.solves) << what;
  return count;
}

net::NetworkParams ladder_params(int links, int channels, int levels,
                                 double gamma_scale) {
  net::NetworkParams p;
  p.num_links = links;
  p.num_channels = channels;
  p.sinr_thresholds.resize(levels);
  for (int q = 0; q < levels; ++q)
    p.sinr_thresholds[q] = 0.1 * (q + 1) * gamma_scale;
  return p;
}

TEST(MilpPricing, StaircaseConflictsMatchPairwise) {
  std::int64_t conflicts = 0;
  int instances = 0;
  // Table-I gains: K 1/3/5, Q 2/4/6, gamma x1 up to x30.
  for (const int links : {4, 9, 14}) {
    for (const int channels : {1, 3, 5}) {
      for (const int levels : {2, 4, 6}) {
        for (const double gamma_scale : {1.0, 3.0, 10.0, 30.0}) {
          const std::uint64_t seed = 1000 + instances;
          common::Rng rng(seed);
          const net::Network net = net::Network::table_i(
              ladder_params(links, channels, levels, gamma_scale), rng);
          const std::string what = "table-I seed " + std::to_string(seed);
          conflicts += check_staircases(net, what.c_str()).conflicts;
          ++instances;
        }
      }
    }
  }
  // Geometric gains: wide and narrow beams (more and less interference).
  for (const int links : {4, 10, 16}) {
    for (const double beamwidth : {0.3, 0.6, 1.2}) {
      for (const double gamma_scale : {1.0, 3.0, 10.0, 30.0}) {
        const std::uint64_t seed = 2000 + instances;
        common::Rng rng(seed);
        net::NetworkParams params = ladder_params(links, 3, 5, gamma_scale);
        params.noise_watts = 1e-4;  // geometric gains need a link margin
        net::GeometricChannelConfig gcfg;
        gcfg.beamwidth_rad = beamwidth;
        const net::Network net(
            params, std::make_unique<net::GeometricChannelModel>(
                        links, 3, params.noise_watts, gcfg, rng));
        const std::string what = "geometric seed " + std::to_string(seed);
        conflicts += check_staircases(net, what.c_str()).conflicts;
        ++instances;
      }
    }
  }
  EXPECT_GT(conflicts, 1000) << "too few conflicts to test the walk";
}

TEST(MilpPricing, StaircaseSolvesOnCertifyBank) {
  // The 30 gamma=1 instances (L=10-12, K=5, Q=5) of perfbench's certify
  // workload: a skeleton build makes at most 700 pair power solves on
  // average, against 6,488 for the pairwise enumeration.
  common::Rng gen(0xCE271F1EDULL);
  std::int64_t solves = 0, pairs = 0;
  constexpr int kInstances = 30;
  for (int i = 0; i < kInstances; ++i) {
    const int links = 10 + i % 3;
    const std::uint64_t seed = gen();
    common::Rng rng(seed);
    const net::Network net =
        net::Network::table_i(ladder_params(links, 5, 5, 1.0), rng);
    const std::string what = "certify bank " + std::to_string(i);
    const ConflictCount c = check_staircases(net, what.c_str());
    solves += c.solves;
    pairs += c.pairs;
  }
  EXPECT_LE(solves / kInstances, 700)
      << solves << " solves against " << pairs << " for the enumeration";
}

}  // namespace
}  // namespace mmwave::core

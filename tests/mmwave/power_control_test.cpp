#include "mmwave/power_control.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>

#include "support/matrix.h"
#include "mmwave/channel.h"
#include "mmwave/network.h"

namespace mmwave::net {
namespace {

NetworkParams small_params(int links, int channels) {
  NetworkParams p;
  p.num_links = links;
  p.num_channels = channels;
  return p;
}

/// The minimum-power assignment as computed before PowerSolver existed: a
/// dense Matrix, a one-shot LuFactorization and achieved_sinr.  PowerSolver
/// must reproduce its verdicts and powers bit for bit.
PowerControlResult reference_min_power(const Network& net, int k,
                                       const std::vector<int>& links,
                                       const std::vector<double>& gammas) {
  PowerControlResult out;
  const int n = static_cast<int>(links.size());
  if (n == 0) {
    out.feasible = true;
    return out;
  }
  const double pmax = net.params().p_max_watts;
  common::Matrix a(n, n);
  std::vector<double> rhs(n);
  for (int i = 0; i < n; ++i) {
    const int li = links[i];
    const double h = net.direct_gain(li, k);
    if (h <= 0.0) return out;
    const double scale = gammas[i] / h;
    a(i, i) = 1.0;
    for (int j = 0; j < n; ++j) {
      if (j == i) continue;
      a(i, j) = -scale * net.cross_gain(links[j], li, k);
    }
    rhs[i] = scale * net.noise(li);
  }
  const common::LuFactorization lu(a);
  if (!lu.ok()) return out;
  const std::vector<double> p = lu.solve(rhs);
  for (int i = 0; i < n; ++i) {
    if (!(p[i] >= -1e-12) || p[i] > pmax * (1.0 + 1e-9)) return out;
  }
  std::vector<double> clipped(n);
  for (int i = 0; i < n; ++i)
    clipped[i] = std::min(std::max(p[i], 0.0), pmax);
  const std::vector<double> sinr = achieved_sinr(net, k, links, clipped);
  for (int i = 0; i < n; ++i) {
    if (sinr[i] < gammas[i] * (1.0 - 1e-7)) return out;
  }
  out.feasible = true;
  out.powers = std::move(clipped);
  return out;
}

/// The greedy heuristic's everyone-at-Pmax check as it was written before
/// PowerSolver::fixed_power.
bool reference_fixed_power(const Network& net, int k,
                           const std::vector<int>& links,
                           const std::vector<double>& gammas) {
  const std::vector<double> powers(links.size(), net.params().p_max_watts);
  const std::vector<double> sinr = achieved_sinr(net, k, links, powers);
  for (std::size_t i = 0; i < links.size(); ++i) {
    if (sinr[i] < gammas[i] * (1.0 - 1e-9)) return false;
  }
  return true;
}

Network geometric_net(int links, int channels, double beamwidth,
                      std::uint64_t seed) {
  common::Rng rng(seed);
  NetworkParams params = small_params(links, channels);
  params.noise_watts = 1e-4;  // geometric gains need a real link margin
  GeometricChannelConfig gcfg;
  gcfg.beamwidth_rad = beamwidth;
  auto model = std::make_unique<GeometricChannelModel>(
      links, channels, params.noise_watts, gcfg, rng);
  return Network(params, std::move(model));
}

/// Two links on one channel with hand-set gains: direct gain 1, cross gain
/// `cross` both ways, noise `noise`.
class PairChannel : public ChannelModel {
 public:
  PairChannel(double cross, double noise)
      : cross_(cross), noise_(noise), links_{{0, 0, 1}, {1, 2, 3}} {}
  int num_links() const override { return 2; }
  int num_channels() const override { return 1; }
  double direct_gain(int, int) const override { return 1.0; }
  double cross_gain(int, int, int) const override { return cross_; }
  double noise(int) const override { return noise_; }
  const std::vector<Link>& links() const override { return links_; }

 private:
  double cross_;
  double noise_;
  std::vector<Link> links_;
};

TEST(PowerControl, SolverMatchesReferenceBitForBit) {
  // 40 networks (Table-I and geometric gains), 60 random link sets each:
  // n = 1..8 links at random ladder levels scaled by gamma x1..x10.  One
  // solver per network serves every set, so stale scratch would show.
  constexpr int kLinks = 10, kChannels = 3;
  int sets = 0, feasible = 0, fixed_feasible = 0;
  for (int net_index = 0; net_index < 40; ++net_index) {
    const std::uint64_t seed = 0xB17 + static_cast<std::uint64_t>(net_index);
    common::Rng tr(seed);
    const Network net =
        net_index % 2 == 0
            ? Network::table_i(small_params(kLinks, kChannels), tr)
            : geometric_net(kLinks, kChannels, 0.3 + 0.05 * (net_index / 2),
                            seed);
    PowerSolver solver(net, kLinks);
    common::Rng rng(seed * 7919);
    for (int trial = 0; trial < 60; ++trial, ++sets) {
      std::vector<int> pool(kLinks);
      for (int l = 0; l < kLinks; ++l) pool[l] = l;
      rng.shuffle(pool);
      const int n = static_cast<int>(rng.uniform_int(1, 8));
      const std::vector<int> links(pool.begin(), pool.begin() + n);
      const double scale = static_cast<double>(rng.uniform_int(1, 10));
      std::vector<double> gammas(n);
      for (double& g : gammas) {
        g = scale * net.rate_level(static_cast<int>(rng.uniform_index(
                        net.num_rate_levels())))
                        .sinr_threshold;
      }
      const int k = static_cast<int>(rng.uniform_index(kChannels));

      const PowerControlResult want =
          reference_min_power(net, k, links, gammas);
      const bool got = solver.min_power(k, links, gammas);
      ASSERT_EQ(got, want.feasible) << "network " << net_index << " set "
                                    << trial;
      if (got) {
        ++feasible;
        ASSERT_EQ(solver.powers().size(), want.powers.size());
        EXPECT_EQ(std::memcmp(solver.powers().data(), want.powers.data(),
                              want.powers.size() * sizeof(double)),
                  0)
            << "network " << net_index << " set " << trial;
      }
      const PowerControlResult wrapped =
          min_power_assignment(net, k, links, gammas);
      EXPECT_EQ(wrapped.feasible, want.feasible);
      EXPECT_EQ(wrapped.powers, want.powers);

      const bool fixed = solver.fixed_power(k, links, gammas);
      ASSERT_EQ(fixed, reference_fixed_power(net, k, links, gammas))
          << "network " << net_index << " set " << trial;
      if (fixed) {
        ++fixed_feasible;
        for (double p : solver.powers())
          EXPECT_EQ(p, net.params().p_max_watts);
      }
    }
  }
  EXPECT_GE(sets, 2000);
  // Both verdicts must be common, or the comparison proves little.
  EXPECT_GT(feasible, sets / 10) << feasible << " of " << sets;
  EXPECT_LT(feasible, sets - sets / 10) << feasible << " of " << sets;
  EXPECT_GT(fixed_feasible, sets / 20) << fixed_feasible << " of " << sets;
}

TEST(PowerControl, PmaxSlackIsOnePartInABillion) {
  // One link alone needs P = gamma rho / h, so gamma0 = h Pmax / rho is
  // the largest threshold it meets at Pmax.  The solve accepts powers up
  // to Pmax (1 + 1e-9) and the fixed-power check SINRs down to
  // gamma (1 - 1e-9): a threshold 5e-10 above gamma0 passes both, one
  // 2e-9 above fails both.
  common::Rng rng(11);
  const Network net = Network::table_i(small_params(2, 1), rng);
  const double gamma0 =
      net.direct_gain(0, 0) * net.params().p_max_watts / net.noise(0);
  const std::vector<int> link{0};
  const std::vector<double> inside{gamma0 * (1.0 + 5e-10)};
  const std::vector<double> outside{gamma0 * (1.0 + 2e-9)};
  PowerSolver solver(net, 1);
  EXPECT_TRUE(solver.min_power(0, link, inside));
  EXPECT_FALSE(solver.min_power(0, link, outside));
  EXPECT_TRUE(solver.fixed_power(0, link, inside));
  EXPECT_FALSE(solver.fixed_power(0, link, outside));
  // The same verdicts as before the kernel existed.
  EXPECT_TRUE(reference_min_power(net, 0, link, inside).feasible);
  EXPECT_FALSE(reference_min_power(net, 0, link, outside).feasible);
  EXPECT_TRUE(reference_fixed_power(net, 0, link, inside));
  EXPECT_FALSE(reference_fixed_power(net, 0, link, outside));
}

TEST(PowerControl, SingularPivotFloorIsOneInATrillion) {
  // Two links at gamma = 1 with cross gain g: (I - DF) has determinant
  // 1 - g^2, its last LU pivot.  With a 1e-13 W noise floor the minimal
  // powers stay under Pmax even close to singular, so the 1e-12 pivot
  // floor alone decides: a pivot of 5e-12 is solved, one of 5e-13 is not.
  const std::vector<int> links{0, 1};
  const std::vector<double> gammas{1.0, 1.0};
  for (const double det : {5e-12, 5e-13}) {
    NetworkParams params = small_params(2, 1);
    params.sinr_thresholds = {1.0};
    const Network net(params,
                      std::make_unique<PairChannel>(std::sqrt(1.0 - det),
                                                    1e-13));
    PowerSolver solver(net, 2);
    const bool want = det > 1e-12;
    EXPECT_EQ(solver.min_power(0, links, gammas), want) << det;
    EXPECT_EQ(reference_min_power(net, 0, links, gammas).feasible, want)
        << det;
  }
}

TEST(PowerControl, EmptySetFeasible) {
  common::Rng rng(1);
  Network net = Network::table_i(small_params(3, 2), rng);
  const auto r = min_power_assignment(net, 0, {}, {});
  EXPECT_TRUE(r.feasible);
  EXPECT_TRUE(r.powers.empty());
}

TEST(PowerControl, SingleLinkClosedForm) {
  common::Rng rng(2);
  Network net = Network::table_i(small_params(3, 2), rng);
  const double gamma = 0.3;
  const auto r = min_power_assignment(net, 1, {0}, {gamma});
  ASSERT_TRUE(r.feasible);
  // P* = gamma * rho / H.
  EXPECT_NEAR(r.powers[0],
              gamma * net.noise(0) / net.direct_gain(0, 1), 1e-10);
}

TEST(PowerControl, SingleLinkInfeasibleWhenGainTooSmall) {
  common::Rng rng(3);
  Network net = Network::table_i(small_params(2, 2), rng);
  // Demand an absurd threshold that needs more than Pmax.
  const double gamma = net.params().p_max_watts *
                       net.direct_gain(0, 0) / net.noise(0) * 1.5;
  const auto r = min_power_assignment(net, 0, {0}, {gamma});
  EXPECT_FALSE(r.feasible);
}

TEST(PowerControl, TwoLinkClosedForm) {
  // Hand-checkable 2-link system on one channel.
  common::Rng rng(4);
  Network net = Network::table_i(small_params(2, 1), rng);
  const double g0 = 0.2, g1 = 0.25;
  const auto r = min_power_assignment(net, 0, {0, 1}, {g0, g1});
  if (r.feasible) {
    const auto sinr = achieved_sinr(net, 0, {0, 1}, r.powers);
    // Minimal powers are tight: SINR == threshold.
    EXPECT_NEAR(sinr[0], g0, 1e-7);
    EXPECT_NEAR(sinr[1], g1, 1e-7);
  }
}

TEST(PowerControl, MinimalityTightSinr) {
  common::Rng rng(5);
  Network net = Network::table_i(small_params(6, 3), rng);
  const std::vector<int> links{0, 2, 4};
  const std::vector<double> gammas{0.1, 0.2, 0.1};
  const auto r = min_power_assignment(net, 1, links, gammas);
  if (!r.feasible) GTEST_SKIP() << "random instance infeasible";
  const auto sinr = achieved_sinr(net, 1, links, r.powers);
  for (std::size_t i = 0; i < links.size(); ++i)
    EXPECT_NEAR(sinr[i], gammas[i], 1e-6);
}

TEST(PowerControl, DirectAndIterativeAgree) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    common::Rng rng(seed + 100);
    Network net = Network::table_i(small_params(5, 2), rng);
    const std::vector<int> links{0, 1, 3};
    const std::vector<double> gammas{0.1, 0.1, 0.2};
    const auto direct = min_power_assignment(net, 0, links, gammas);
    const auto iter = iterative_power_control(net, 0, links, gammas, 2000);
    EXPECT_EQ(direct.feasible, iter.feasible) << "seed " << seed;
    if (direct.feasible && iter.feasible) {
      for (std::size_t i = 0; i < links.size(); ++i)
        EXPECT_NEAR(direct.powers[i], iter.powers[i], 1e-6)
            << "seed " << seed << " link " << links[i];
    }
  }
}

TEST(PowerControl, MonotoneInfeasibilityWhenAddingLinks) {
  // If a set is infeasible, any superset must be infeasible too.
  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    common::Rng rng(seed + 500);
    Network net = Network::table_i(small_params(6, 2), rng);
    std::vector<int> links;
    std::vector<double> gammas;
    bool was_infeasible = false;
    for (int l = 0; l < 6; ++l) {
      links.push_back(l);
      gammas.push_back(0.3);
      const bool feasible =
          min_power_assignment(net, 0, links, gammas).feasible;
      if (was_infeasible) {
        EXPECT_FALSE(feasible)
            << "feasibility regained after being lost, seed " << seed;
      }
      if (!feasible) was_infeasible = true;
    }
  }
}

TEST(PowerControl, HigherThresholdsNeedMorePower) {
  common::Rng rng(6);
  Network net = Network::table_i(small_params(4, 2), rng);
  const std::vector<int> links{0, 1};
  const auto lo = min_power_assignment(net, 0, links, {0.1, 0.1});
  const auto hi = min_power_assignment(net, 0, links, {0.2, 0.2});
  if (!lo.feasible || !hi.feasible) GTEST_SKIP();
  for (std::size_t i = 0; i < links.size(); ++i)
    EXPECT_GE(hi.powers[i], lo.powers[i] - 1e-12);
}

TEST(PowerControl, PowersWithinCap) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    common::Rng rng(seed);
    Network net = Network::table_i(small_params(8, 2), rng);
    std::vector<int> links{0, 1, 2, 3};
    std::vector<double> gammas(4, 0.1);
    const auto r = min_power_assignment(net, 0, links, gammas);
    if (!r.feasible) continue;
    for (double p : r.powers) {
      EXPECT_GE(p, -1e-12);
      EXPECT_LE(p, net.params().p_max_watts + 1e-9);
    }
  }
}

TEST(AchievedSinr, NoInterferenceCase) {
  common::Rng rng(7);
  Network net = Network::table_i(small_params(3, 2), rng);
  const auto sinr = achieved_sinr(net, 0, {1}, {0.5});
  ASSERT_EQ(sinr.size(), 1u);
  EXPECT_NEAR(sinr[0], net.direct_gain(1, 0) * 0.5 / net.noise(1), 1e-12);
}

TEST(AchievedSinr, InterferenceReducesSinr) {
  common::Rng rng(8);
  Network net = Network::table_i(small_params(3, 2), rng);
  const auto solo = achieved_sinr(net, 0, {0}, {1.0});
  const auto pair = achieved_sinr(net, 0, {0, 1}, {1.0, 1.0});
  EXPECT_LT(pair[0], solo[0] + 1e-15);
}

}  // namespace
}  // namespace mmwave::net

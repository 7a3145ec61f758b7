// The resolve() rule: a checkpoint seeds the solve only when its
// fingerprint matches the instance, and then certifies the optimum a cold
// solve reaches.  Any other checkpoint — blocked links, rescaled gains,
// regenerated demands, other dimensions — yields exactly the cold solve.
// Warm columns may only accelerate CG, never bias it.
#include "core/resolve.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <memory>
#include <string>

#include "check/schedule_verifier.h"
#include "mmwave/blockage.h"

namespace mmwave::core {
namespace {

constexpr double kRelTol = 1e-7;

net::NetworkParams make_params(int links, int channels, int levels) {
  net::NetworkParams p;
  p.num_links = links;
  p.num_channels = channels;
  p.sinr_thresholds.resize(levels);
  for (int q = 0; q < levels; ++q) p.sinr_thresholds[q] = 0.1 * (q + 1);
  return p;
}

std::vector<video::LinkDemand> random_demands(int links, std::uint64_t seed) {
  common::Rng rng(seed * 131 + 7);
  std::vector<video::LinkDemand> d(links);
  for (auto& x : d) {
    x.hp_bits = rng.uniform(500.0, 2000.0);
    x.lp_bits = rng.uniform(500.0, 2000.0);
  }
  return d;
}

/// One base instance plus a factory for receiver-side perturbed variants
/// sharing the same underlying Table-I model (the blockage geometry).
struct Scenario {
  net::NetworkParams params;
  std::unique_ptr<net::TableIChannelModel> base;
  net::Network net;
  std::vector<video::LinkDemand> demands;

  static Scenario make(std::uint64_t seed, int links, int channels,
                       int levels) {
    net::NetworkParams params = make_params(links, channels, levels);
    common::Rng rng(seed);
    auto base = std::make_unique<net::TableIChannelModel>(
        links, channels, params.noise_watts, rng);
    std::vector<double> ones(links, 1.0);
    net::Network net(params, std::make_unique<net::RxScaledChannelModel>(
                                 base.get(), ones));
    auto demands = random_demands(links, seed);
    return {params, std::move(base), std::move(net), std::move(demands)};
  }

  /// The same instance with per-receiver gain scales applied.
  net::Network scaled(std::vector<double> scales) const {
    return net::Network(params, std::make_unique<net::RxScaledChannelModel>(
                                    base.get(), std::move(scales)));
  }
};

CgOptions exact_options() {
  CgOptions opts;
  opts.pricing = PricingMode::ExactAlways;
  return opts;
}

/// Asserts resolve() on `net` from `ckpt`, a checkpoint of another
/// instance, seeds nothing and returns the cold solve field for field.
void expect_cold_solve(const net::Network& net,
                       const std::vector<video::LinkDemand>& demands,
                       const CgCheckpoint& ckpt) {
  const CgResult cold = solve_column_generation(net, demands, exact_options());
  ASSERT_TRUE(cold.converged);
  const ResolveResult r = resolve(net, demands, ckpt, exact_options());
  EXPECT_FALSE(r.used_checkpoint);
  EXPECT_EQ(r.checkpoint_status.code(), common::ErrorCode::kInvalidInput);
  EXPECT_EQ(r.cg.profile.warm_pool_columns, 0);
  EXPECT_EQ(r.cg.profile.warm_pool_rejected, 0);
  EXPECT_EQ(r.cg.converged, cold.converged);
  EXPECT_EQ(r.cg.iterations, cold.iterations);
  EXPECT_EQ(r.cg.total_slots, cold.total_slots);
  if (std::isnan(cold.lower_bound)) {
    EXPECT_TRUE(std::isnan(r.cg.lower_bound));
  } else {
    EXPECT_EQ(r.cg.lower_bound, cold.lower_bound);
  }
  ASSERT_EQ(r.cg.timeline.size(), cold.timeline.size());
  for (std::size_t i = 0; i < cold.timeline.size(); ++i) {
    EXPECT_EQ(r.cg.timeline[i].schedule.key(),
              cold.timeline[i].schedule.key());
    EXPECT_EQ(r.cg.timeline[i].slots, cold.timeline[i].slots);
  }
}

TEST(CgResolve, UnchangedInstanceReproducesResult) {
  const Scenario sc = Scenario::make(1, 5, 2, 3);
  const CgResult cold =
      solve_column_generation(sc.net, sc.demands, exact_options());
  ASSERT_TRUE(cold.converged);
  const CgCheckpoint ckpt = make_checkpoint(sc.net, sc.demands, cold);

  CgOptions warm_opts = exact_options();
  warm_opts.verify = true;  // referee every warm column entering the pool
  const ResolveResult warm = resolve(sc.net, sc.demands, ckpt, warm_opts);
  ASSERT_TRUE(warm.used_checkpoint);
  EXPECT_TRUE(warm.checkpoint_status.ok());
  EXPECT_GT(warm.cg.profile.warm_pool_columns, 0);
  // The warm solve re-certifies the same optimum, in no more iterations.
  ASSERT_TRUE(warm.cg.converged);
  EXPECT_NEAR(warm.cg.total_slots, cold.total_slots,
              kRelTol * cold.total_slots);
  EXPECT_LE(warm.cg.iterations, cold.iterations);
  EXPECT_TRUE(warm.cg.verification.ok())
      << warm.cg.verification.errors.front();
}

TEST(CgResolve, BlockedLinksPerturbation) {
  const Scenario sc = Scenario::make(2, 6, 2, 3);
  const CgResult cold =
      solve_column_generation(sc.net, sc.demands, exact_options());
  ASSERT_TRUE(cold.converged);
  const CgCheckpoint ckpt = make_checkpoint(sc.net, sc.demands, cold);

  // Two receivers blocked hard (-13 dB): another instance, so a cold solve.
  std::vector<double> scales(sc.net.num_links(), 1.0);
  scales[0] = scales[3] = 0.05;
  expect_cold_solve(sc.scaled(scales), sc.demands, ckpt);
}

TEST(CgResolve, GainChangePerturbation) {
  const Scenario sc = Scenario::make(3, 5, 2, 3);
  const CgResult cold =
      solve_column_generation(sc.net, sc.demands, exact_options());
  ASSERT_TRUE(cold.converged);
  const CgCheckpoint ckpt = make_checkpoint(sc.net, sc.demands, cold);

  // Mild fading on every receiver.
  std::vector<double> scales(sc.net.num_links());
  common::Rng rng(99);
  for (double& s : scales) s = rng.uniform(0.6, 1.0);
  expect_cold_solve(sc.scaled(scales), sc.demands, ckpt);
}

TEST(CgResolve, DemandChangePerturbation) {
  const Scenario sc = Scenario::make(4, 5, 2, 3);
  const CgResult cold =
      solve_column_generation(sc.net, sc.demands, exact_options());
  ASSERT_TRUE(cold.converged);
  const CgCheckpoint ckpt = make_checkpoint(sc.net, sc.demands, cold);

  // Next GOP's demands: the network is unchanged, but demands are
  // fingerprinted too.
  expect_cold_solve(sc.net, random_demands(sc.net.num_links(), 555), ckpt);
}

TEST(CgResolve, DimensionMismatchFallsBackCold) {
  const Scenario small = Scenario::make(5, 4, 2, 2);
  const CgResult r =
      solve_column_generation(small.net, small.demands, exact_options());
  const CgCheckpoint ckpt = make_checkpoint(small.net, small.demands, r);

  const Scenario big = Scenario::make(6, 6, 2, 2);
  expect_cold_solve(big.net, big.demands, ckpt);
}

TEST(CgResolve, FingerprintMismatchRejectedWhenRequired) {
  const Scenario sc = Scenario::make(7, 5, 2, 3);
  const CgResult r =
      solve_column_generation(sc.net, sc.demands, exact_options());
  const CgCheckpoint ckpt = make_checkpoint(sc.net, sc.demands, r);

  // A uniform 10% fade is another instance: the fingerprint alone decides,
  // whatever share of the pool would still verify.
  std::vector<double> scales(sc.net.num_links(), 0.9);
  const ResolveResult warm =
      resolve(sc.scaled(scales), sc.demands, ckpt, exact_options());
  EXPECT_FALSE(warm.used_checkpoint);
  EXPECT_FALSE(warm.checkpoint_status.ok());
  EXPECT_NE(warm.checkpoint_status.message().find("fingerprint"),
            std::string::npos);
  EXPECT_TRUE(warm.cg.converged);
}

TEST(CgResolve, UpdatedCheckpointSeedsTheNextResolve) {
  const Scenario sc = Scenario::make(8, 6, 2, 3);
  const CgResult first =
      solve_column_generation(sc.net, sc.demands, exact_options());
  const CgCheckpoint stale = make_checkpoint(sc.net, sc.demands, first);

  // The first resolve under a blockage runs cold; `resolve --update` then
  // saves its state, which is a checkpoint of the blocked instance.
  std::vector<double> scales(sc.net.num_links(), 1.0);
  scales[1] = scales[4] = 0.05;
  const net::Network blocked = sc.scaled(scales);
  const ResolveResult cold =
      resolve(blocked, sc.demands, stale, exact_options());
  ASSERT_FALSE(cold.used_checkpoint);
  ASSERT_TRUE(cold.cg.converged);
  const std::string path =
      std::string(::testing::TempDir()) + "resolve_update.ckpt";
  ASSERT_TRUE(
      save_checkpoint(make_checkpoint(blocked, sc.demands, cold.cg), path)
          .ok());

  // The next resolve under the same blockage is a matched warm start.
  CgOptions warm_opts = exact_options();
  warm_opts.verify = true;
  const ResolveResult warm =
      resolve_from_file(path, sc.scaled(scales), sc.demands, warm_opts);
  std::remove(path.c_str());
  ASSERT_TRUE(warm.used_checkpoint);
  EXPECT_TRUE(warm.checkpoint_status.ok());
  EXPECT_GT(warm.cg.profile.warm_pool_columns, 0);
  ASSERT_TRUE(warm.cg.converged);
  EXPECT_NEAR(warm.cg.total_slots, cold.cg.total_slots,
              kRelTol * cold.cg.total_slots);
  EXPECT_LE(warm.cg.iterations, cold.cg.iterations);
  EXPECT_TRUE(warm.cg.verification.ok());
}

TEST(CgResolve, InfeasibleColumnIsDroppedByTheVerifier) {
  const Scenario sc = Scenario::make(9, 6, 2, 3);
  const CgResult cold =
      solve_column_generation(sc.net, sc.demands, exact_options());
  ASSERT_TRUE(cold.converged);
  CgCheckpoint ckpt = make_checkpoint(sc.net, sc.demands, cold);
  const int pooled = static_cast<int>(ckpt.pool.size());
  ASSERT_GT(pooled, 0);

  // A well-formed column over twice the power cap: the fingerprint still
  // matches, but the column is not feasible on this (or any) instance.
  std::vector<sched::Transmission> txs = ckpt.pool.front().transmissions();
  for (sched::Transmission& tx : txs)
    tx.power_watts = 2.0 * sc.params.p_max_watts;
  const sched::Schedule infeasible(std::move(txs));
  ASSERT_FALSE(check::ScheduleVerifier(sc.net).verify(infeasible).ok());
  ckpt.pool.push_back(infeasible);
  ckpt.pool_tau.push_back(0.0);

  CgOptions warm_opts = exact_options();
  warm_opts.verify = true;
  const ResolveResult warm = resolve(sc.net, sc.demands, ckpt, warm_opts);
  ASSERT_TRUE(warm.used_checkpoint);
  // CG was offered exactly the feasible pool: the verifier dropped the
  // infeasible column before CG's own admission check could see it.
  const CgProfile& p = warm.cg.profile;
  EXPECT_EQ(p.warm_pool_columns + p.warm_pool_rejected, pooled);
  ASSERT_TRUE(warm.cg.converged);
  EXPECT_NEAR(warm.cg.total_slots, cold.total_slots,
              kRelTol * cold.total_slots);
  EXPECT_TRUE(warm.cg.verification.ok());
}

TEST(CgResolve, WarmPoolProfileCountsSeededColumns) {
  const Scenario sc = Scenario::make(10, 5, 2, 3);
  const CgResult cold =
      solve_column_generation(sc.net, sc.demands, exact_options());
  const CgCheckpoint ckpt = make_checkpoint(sc.net, sc.demands, cold);
  const ResolveResult warm = resolve(sc.net, sc.demands, ckpt, exact_options());
  // TDMA columns duplicate part of the pool, so some warm columns are
  // rejected as duplicates; accepted + rejected covers the whole pool,
  // which verifies intact on its own instance.
  const CgProfile& p = warm.cg.profile;
  EXPECT_EQ(p.warm_pool_columns + p.warm_pool_rejected,
            static_cast<int>(ckpt.pool.size()));
  EXPECT_GT(p.warm_pool_columns, 0);
}

}  // namespace
}  // namespace mmwave::core

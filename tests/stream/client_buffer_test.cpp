#include "stream/client_buffer.h"

#include <gtest/gtest.h>

#include <cinttypes>
#include <cmath>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "stream/blockage_session.h"

namespace mmwave::stream {
namespace {

constexpr double kGop = 0.5;  // 12-frame GOP at 24 fps

// ---- ClientBuffer unit behavior ------------------------------------------

TEST(ClientBuffer, StartupWaitIsNotStall) {
  ClientBufferConfig cfg;
  cfg.startup_seconds = 1.0;
  ClientBuffer b(cfg);
  // Two periods of exact-rate delivery: 0.5 s each, below the 1.0 s gate.
  b.advance(kGop, kGop);
  EXPECT_FALSE(b.started());
  EXPECT_DOUBLE_EQ(b.stall_seconds(), 0.0);
  b.advance(kGop, kGop);
  // The gate is reached within this period, so playback starts and drains.
  EXPECT_TRUE(b.started());
  EXPECT_TRUE(b.playing());
  EXPECT_DOUBLE_EQ(b.stall_seconds(), 0.0);
  EXPECT_NEAR(b.occupancy_seconds(), 0.5, 1e-12);
}

TEST(ClientBuffer, UnderrunStallsAndCountsOneRebuffer) {
  ClientBufferConfig cfg;
  cfg.startup_seconds = 0.5;
  cfg.rebuffer_seconds = 0.5;
  ClientBuffer b(cfg);
  b.advance(kGop, kGop);  // starts, plays the period, ends empty
  EXPECT_TRUE(b.started());
  b.advance(0.0, kGop);  // blocked period: nothing arrives
  EXPECT_FALSE(b.playing());
  EXPECT_EQ(b.rebuffer_events(), 1);
  EXPECT_NEAR(b.stall_seconds(), kGop, 1e-12);
  b.advance(0.0, kGop);  // still dry: more stall, same rebuffer event
  EXPECT_EQ(b.rebuffer_events(), 1);
  EXPECT_NEAR(b.stall_seconds(), 2 * kGop, 1e-12);
  b.advance(kGop, kGop);  // refill to the rebuffer gate: resumes and plays
  EXPECT_TRUE(b.playing());
  EXPECT_NEAR(b.stall_seconds(), 2 * kGop, 1e-12);
}

TEST(ClientBuffer, PlayingImpliesStarted) {
  ClientBuffer b{ClientBufferConfig{}};
  common::Rng rng(7001);
  for (int i = 0; i < 200; ++i) {
    b.advance(rng.uniform() * 2.0 * kGop, kGop);
    EXPECT_TRUE(!b.playing() || b.started());
  }
}

// Conservation: every second delivered is either played or still buffered,
// to 1e-9, over randomized delivery sequences (including prefetch > 1x and
// total outage), and the stall/rebuffer counters are monotone.
TEST(ClientBuffer, ConservationAndMonotonicityUnderRandomTraffic) {
  for (std::uint64_t seed : {7101u, 7102u, 7103u, 7104u}) {
    common::Rng rng(seed);
    ClientBufferConfig cfg;
    cfg.startup_seconds = 0.25 + rng.uniform();
    cfg.rebuffer_seconds = 0.25 + rng.uniform();
    ClientBuffer b(cfg);
    double prev_stall = 0.0;
    int prev_rebuffers = 0;
    for (int i = 0; i < 500; ++i) {
      const double u = rng.uniform();
      // 30% outage, otherwise up to 3x prefetch.
      const double delivered = u < 0.3 ? 0.0 : (u * 3.0) * kGop;
      b.advance(delivered, kGop);
      EXPECT_NEAR(b.delivered_seconds() - b.played_seconds(),
                  b.occupancy_seconds(), 1e-9)
          << "seed " << seed << " step " << i;
      EXPECT_GE(b.occupancy_seconds(), -1e-12);
      EXPECT_GE(b.stall_seconds(), prev_stall);
      EXPECT_GE(b.rebuffer_events(), prev_rebuffers);
      prev_stall = b.stall_seconds();
      prev_rebuffers = b.rebuffer_events();
    }
  }
}

TEST(ClientBuffer, RestoreReestablishesTheConservationWitnesses) {
  ClientBuffer b{ClientBufferConfig{}};
  b.restore(/*occupancy_seconds=*/1.25, /*stall_seconds=*/2.0,
            /*rebuffer_events=*/3, /*playing=*/true, /*started=*/true,
            /*hp_gops_delivered=*/4, /*lp_gops_delivered=*/2);
  EXPECT_DOUBLE_EQ(b.occupancy_seconds(), 1.25);
  EXPECT_DOUBLE_EQ(b.stall_seconds(), 2.0);
  EXPECT_EQ(b.rebuffer_events(), 3);
  EXPECT_EQ(b.hp_gops_delivered(), 4);
  EXPECT_EQ(b.lp_gops_delivered(), 2);
  // The witnesses restart at (occupancy, 0) so the invariant keeps holding.
  EXPECT_NEAR(b.delivered_seconds() - b.played_seconds(),
              b.occupancy_seconds(), 1e-12);
  common::Rng rng(7200);
  for (int i = 0; i < 100; ++i) {
    b.advance(rng.uniform() * 2.0 * kGop, kGop);
    EXPECT_NEAR(b.delivered_seconds() - b.played_seconds(),
                b.occupancy_seconds(), 1e-9);
  }
}

// ---- DemandPolicy properties ---------------------------------------------

std::vector<video::LinkDemand> some_demands(int links, common::Rng* rng) {
  std::vector<video::LinkDemand> d(links);
  for (int l = 0; l < links; ++l) {
    d[l].hp_bits = 1e5 * (1.0 + rng->uniform());
    d[l].lp_bits = 5e4 * (1.0 + rng->uniform());
  }
  return d;
}

// When every buffer sits at or above the target no link is at risk, and the
// drain-risk policy must be the identity — i.e. exactly the blind policy.
TEST(DemandPolicy, DrainRiskEqualsBlindWhenAllBuffersSaturated) {
  ClientBufferConfig cfg;  // target_seconds = 2.0
  const std::unique_ptr<DemandPolicy> blind = make_blind_policy();
  const std::unique_ptr<DemandPolicy> drain = make_drain_risk_policy(cfg);
  common::Rng rng(7300);
  for (int trial = 0; trial < 20; ++trial) {
    const int links = 3 + static_cast<int>(rng.uniform_index(5));
    std::vector<ClientBuffer> buffers(links, ClientBuffer(cfg));
    for (ClientBuffer& b : buffers) {
      b.restore(cfg.target_seconds + rng.uniform() * 3.0, 0.0, 0,
                /*playing=*/true, /*started=*/true, 0, 0);
    }
    std::vector<std::uint8_t> blocked(links, 0);
    for (int l = 0; l < links; ++l)
      blocked[l] = rng.uniform() < 0.3 ? 1 : 0;
    std::vector<video::LinkDemand> a = some_demands(links, &rng);
    std::vector<video::LinkDemand> b = a;
    blind->shape(buffers, blocked, kGop, a);
    drain->shape(buffers, blocked, kGop, b);
    for (int l = 0; l < links; ++l) {
      EXPECT_EQ(a[l].hp_bits, b[l].hp_bits) << "trial " << trial;
      EXPECT_EQ(a[l].lp_bits, b[l].lp_bits) << "trial " << trial;
    }
  }
}

TEST(DemandPolicy, DrainRiskBoostsAtRiskLinksAndNeverYieldsHp) {
  ClientBufferConfig cfg;
  const std::unique_ptr<DemandPolicy> drain = make_drain_risk_policy(cfg);
  const int links = 4;
  std::vector<ClientBuffer> buffers(links, ClientBuffer(cfg));
  // Link 0: empty (fully at risk).  Links 1..3: saturated.
  buffers[0].restore(0.0, 0.0, 0, true, true, 0, 0);
  for (int l = 1; l < links; ++l)
    buffers[l].restore(cfg.target_seconds + 1.0, 0.0, 0, true, true, 0, 0);
  std::vector<std::uint8_t> blocked(links, 0);
  blocked[3] = 1;  // blocked links are never touched
  common::Rng rng(7400);
  const std::vector<video::LinkDemand> nominal = some_demands(links, &rng);
  std::vector<video::LinkDemand> shaped = nominal;
  drain->shape(buffers, blocked, kGop, shaped);
  // The at-risk link bids higher on both layers.
  EXPECT_GT(shaped[0].hp_bits, nominal[0].hp_bits);
  EXPECT_GT(shaped[0].lp_bits, nominal[0].lp_bits);
  // Saturated unblocked links yield LP only; HP is untouchable.
  for (int l = 1; l < 3; ++l) {
    EXPECT_EQ(shaped[l].hp_bits, nominal[l].hp_bits);
    EXPECT_LT(shaped[l].lp_bits, nominal[l].lp_bits);
    EXPECT_GT(shaped[l].lp_bits, 0.0);  // yield_fraction < 1
  }
  // The blocked link's demand is whatever the nominal stream says.
  EXPECT_EQ(shaped[3].hp_bits, nominal[3].hp_bits);
  EXPECT_EQ(shaped[3].lp_bits, nominal[3].lp_bits);
}

TEST(DemandPolicy, FactoryResolvesNamesAndRejectsUnknowns) {
  ClientBufferConfig cfg;
  const auto blind = make_demand_policy("blind", cfg);
  ASSERT_NE(blind, nullptr);
  EXPECT_STREQ(blind->name(), "blind");
  const auto drain = make_demand_policy("drain-risk", cfg);
  ASSERT_NE(drain, nullptr);
  EXPECT_STREQ(drain->name(), "drain-risk");
  EXPECT_EQ(make_demand_policy("psychic", cfg), nullptr);
  EXPECT_EQ(make_demand_policy("", cfg), nullptr);
}

// ---- Blind-policy regression pin -----------------------------------------

// The per-GOP demand, slot, PSNR and blocked-fraction goldens were captured
// on the commit BEFORE client buffers existed (seed 624b40f): the blind
// policy must keep every schedule and metric bit-identical to sessions that
// had no buffer model at all.  Any drift here means buffer bookkeeping
// leaked into scheduling.  The plan digest chain was re-pinned when the
// cross-period column pool was removed: every period now solves cold, so
// the chain is that of the context-free scheduler, whose heuristic plans
// the pooled scheduler did not always reproduce.
TEST(DemandPolicy, BlindSessionsMatchPreBufferGoldens) {
  net::NetworkParams params;
  params.num_links = 5;
  params.num_channels = 2;
  common::Rng model_rng(601);
  net::TableIChannelModel model(5, 2, params.noise_watts, model_rng);

  BlockageSessionConfig cfg;
  cfg.session.num_gops = 6;
  cfg.session.demand_scale = 1e-4;
  cfg.blockage.p_block = 0.35;
  cfg.blockage.attenuation = 0.05;
  const std::unique_ptr<DemandPolicy> blind = make_blind_policy();
  cfg.demand_policy = blind.get();

  SolverContext ctx;
  common::Rng rng(602);
  const auto m = run_blockage_session(
      model, params, cfg, make_cg_scheduler({}, &ctx), rng, &ctx);

  EXPECT_EQ(m.plan_digest_chain, 0x4fdd03fa0cde290cull);
  EXPECT_DOUBLE_EQ(m.base.on_time_ratio, 1.0);
  EXPECT_DOUBLE_EQ(m.base.total_stall_slots, 0.0);
  EXPECT_DOUBLE_EQ(m.base.mean_psnr_db, 43.660097219587954);
  EXPECT_DOUBLE_EQ(m.mean_blocked_fraction, 0.30000000000000004);
  EXPECT_TRUE(m.base.all_served);
  const double golden_demand[6] = {
      44798.236719416542, 46021.426642888982, 43739.234723772854,
      41156.869953420908, 40584.076434938128, 39826.978392836885};
  const double golden_slots[6] = {
      8.3386275208422269, 12.55740267323041,  12.050342654657296,
      34.481775772065504, 10.753611909143572, 24.589462985423854};
  ASSERT_EQ(m.base.gops.size(), 6u);
  for (int g = 0; g < 6; ++g) {
    EXPECT_DOUBLE_EQ(m.base.gops[g].demand_bits, golden_demand[g]) << g;
    EXPECT_DOUBLE_EQ(m.base.gops[g].schedule_slots, golden_slots[g]) << g;
    EXPECT_TRUE(m.base.gops[g].on_time) << g;
    EXPECT_DOUBLE_EQ(m.base.gops[g].stall_slots, 0.0) << g;
  }
  // A null demand_policy is the same baseline: identical digest chain.
  BlockageSessionConfig null_cfg = cfg;
  null_cfg.demand_policy = nullptr;
  common::Rng model_rng2(601);
  net::TableIChannelModel model2(5, 2, params.noise_watts, model_rng2);
  SolverContext ctx2;
  common::Rng rng2(602);
  const auto m2 = run_blockage_session(
      model2, params, null_cfg, make_cg_scheduler({}, &ctx2), rng2, &ctx2);
  EXPECT_EQ(m2.plan_digest_chain, m.plan_digest_chain);
}

// Drain-risk shaping on the same world: scheduling may differ, but the
// session-level accounting invariants must hold.
TEST(DemandPolicy, DrainRiskSessionKeepsAccountingInvariants) {
  net::NetworkParams params;
  params.num_links = 5;
  params.num_channels = 2;
  common::Rng model_rng(601);
  net::TableIChannelModel model(5, 2, params.noise_watts, model_rng);

  BlockageSessionConfig cfg;
  cfg.session.num_gops = 6;
  cfg.session.demand_scale = 1e-4;
  cfg.blockage.p_block = 0.35;
  cfg.blockage.attenuation = 0.05;
  const std::unique_ptr<DemandPolicy> drain =
      make_drain_risk_policy(cfg.buffer);
  cfg.demand_policy = drain.get();

  SolverContext ctx;
  common::Rng rng(602);
  const auto m = run_blockage_session(
      model, params, cfg, make_cg_scheduler({}, &ctx), rng, &ctx);
  EXPECT_TRUE(m.completed);
  EXPECT_GE(m.stall_seconds, 0.0);
  EXPECT_GE(m.rebuffer_events, 0);
  // Two layers per link per GOP is the offered ceiling.
  EXPECT_LE(m.layer_gops_delivered, m.layer_gops_offered);
  EXPECT_LE(m.layer_gops_offered, 2 * 5 * 6);
  EXPECT_GE(m.layer_delivery_ratio, 0.0);
  EXPECT_LE(m.layer_delivery_ratio, 1.0);
}

}  // namespace
}  // namespace mmwave::stream

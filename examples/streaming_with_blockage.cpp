// Streaming under dynamic link blockage.
//
// Runs a multi-GOP streaming horizon on a mmWave piconet where links are
// intermittently blocked (two-state Markov, -13 dB partial blockage), and
// compares three PNC policies:
//   * per-period re-optimization (column generation on the current gains);
//   * blockage-oblivious scheduling (solve once on clear-air gains;
//     blocked transmissions silently deliver nothing);
//   * TDMA re-solved per period.
//
//   ./examples/streaming_with_blockage [--links=8] [--channels=3]
//       [--gops=12] [--p-block=0.25] [--seed=9]
#include <cstdio>
#include <iostream>
#include <memory>

#include "common/cli.h"
#include "common/table.h"
#include "stream/blockage_session.h"

int main(int argc, char** argv) {
  using namespace mmwave;
  common::CliFlags flags;
  flags.parse(argc, argv);
  const auto links_flag = flags.get_int_checked("links", 8, 1, 4096);
  const auto channels_flag = flags.get_int_checked("channels", 3, 1, 1024);
  const auto gops_flag = flags.get_int_checked("gops", 12, 1, 1'000'000);
  const auto p_block_flag = flags.get_double_checked("p-block", 0.25, 0.0, 1.0);
  const auto seed_flag = flags.get_int_checked("seed", 9, 0);
  for (const common::Status& status :
       {links_flag.status(), channels_flag.status(), gops_flag.status(),
        p_block_flag.status(), seed_flag.status(), flags.check_unused()}) {
    if (!status.ok()) {
      std::fprintf(stderr, "error: %s\n", status.message().c_str());
      return 2;
    }
  }
  const int links = static_cast<int>(links_flag.value());
  const int channels = static_cast<int>(channels_flag.value());
  const int gops = static_cast<int>(gops_flag.value());
  const double p_block = p_block_flag.value();
  const auto seed = static_cast<std::uint64_t>(seed_flag.value());

  net::NetworkParams params;
  params.num_links = links;
  params.num_channels = channels;
  common::Rng model_rng(seed);
  net::TableIChannelModel base(links, channels, params.noise_watts,
                               model_rng);

  stream::BlockageSessionConfig cfg;
  cfg.session.num_gops = gops;
  cfg.session.demand_scale = 2e-3;  // keeps periods near their budgets
  cfg.blockage.p_block = p_block;
  cfg.blockage.p_recover = 0.5;
  cfg.blockage.attenuation = 0.05;  // -13 dB: partial blockage

  std::printf(
      "Streaming %d GOPs over %d links / %d channels, blockage p=%.2f "
      "(-13 dB when blocked)\n\n",
      gops, links, channels, p_block);

  common::Table table({"policy", "on-time GOPs", "stall (slots)",
                       "mean PSNR (dB)", "blocked frac",
                       "invalidated periods"});
  auto run = [&](const char* name, const stream::Scheduler& sched,
                 bool reschedule) {
    stream::BlockageSessionConfig run_cfg = cfg;
    run_cfg.reschedule_each_period = reschedule;
    common::Rng rng(seed + 1);
    const auto m =
        stream::run_blockage_session(base, params, run_cfg, sched, rng);
    table.new_row()
        .add(name)
        .add(common::format_double(100.0 * m.base.on_time_ratio, 1) + "%")
        .add(m.base.total_stall_slots, 0)
        .add(m.base.mean_psnr_db, 2)
        .add(m.mean_blocked_fraction, 3)
        .add(m.invalidated_periods);
  };

  run("CG, re-solve each period", stream::make_cg_scheduler({}), true);
  run("CG, blockage-oblivious", stream::make_cg_scheduler({}), false);
  run("TDMA, re-solve each period", stream::make_tdma_scheduler(), true);
  table.print(std::cout);

  std::printf(
      "\nRe-solving each period adapts rate levels and spatial reuse to the "
      "current blockage\nstate; the oblivious policy keeps transmitting "
      "schedules whose SINR no longer holds.\n");
  return 0;
}

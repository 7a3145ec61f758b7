// Quickstart: build a small mmWave network, attach video demands, solve the
// minimum-scheduling-time problem with column generation, and inspect the
// resulting transmission schedule.
//
//   ./examples/quickstart [--links=8] [--channels=3] [--seed=1]
#include <cstdio>
#include <iostream>

#include "common/cli.h"
#include "core/column_generation.h"
#include "mmwave/network.h"
#include "sched/timeline.h"
#include "video/demand.h"

int main(int argc, char** argv) {
  using namespace mmwave;
  common::CliFlags flags;
  flags.parse(argc, argv);
  const auto links_flag = flags.get_int_checked("links", 8, 1, 4096);
  const auto channels_flag = flags.get_int_checked("channels", 3, 1, 1024);
  const auto seed_flag = flags.get_int_checked("seed", 1, 0);
  for (const common::Status& status :
       {links_flag.status(), channels_flag.status(), seed_flag.status(),
        flags.check_unused()}) {
    if (!status.ok()) {
      std::fprintf(stderr, "error: %s\n", status.message().c_str());
      return 2;
    }
  }
  const int links = static_cast<int>(links_flag.value());
  const int channels = static_cast<int>(channels_flag.value());
  const auto seed = static_cast<std::uint64_t>(seed_flag.value());

  // 1. A network instance: Table I parameters, random channel gains.
  common::Rng rng(seed);
  net::NetworkParams params;
  params.num_links = links;
  params.num_channels = channels;
  net::Network net = net::Network::table_i(params, rng);

  // 2. Per-link video demands: one GOP of a scalable H.264-like session.
  video::DemandConfig demand_cfg;
  demand_cfg.demand_scale = 1e-3;  // keep the toy example fast
  common::Rng demand_rng = rng.fork(1);
  const auto demands = video::make_link_demands(links, demand_cfg, demand_rng);

  // 3. Solve: column generation with greedy + exact pricing.
  const core::CgResult result = core::solve_column_generation(net, demands);

  std::printf("Instance: %d links, %d channels, %d rate levels\n", links,
              channels, net.num_rate_levels());
  std::printf("Column generation: %d iterations, %zu schedules in use\n",
              result.iterations, result.timeline.size());
  std::printf("Minimum scheduling time: %.1f slots (%.3f ms)\n",
              result.total_slots,
              result.total_slots * params.slot_seconds * 1e3);
  if (!std::isnan(result.lower_bound)) {
    std::printf("Theorem-1 lower bound:   %.1f slots (gap %.2e)\n",
                result.lower_bound, result.gap());
  }

  // 4. Execute the timeline and report per-link delays.
  const auto exec = sched::execute_timeline(net, result.timeline, demands);
  std::printf("\nAll demands met: %s | avg delay %.1f slots | fairness %.4f\n",
              exec.all_demands_met ? "yes" : "NO", exec.average_delay(),
              exec.delay_fairness());

  std::printf("\nSchedules (tau > 0):\n");
  for (const auto& ts : result.timeline) {
    std::printf("  tau = %9.1f slots |", ts.slots);
    for (const auto& tx : ts.schedule.transmissions()) {
      std::printf(" L%d:%s@q%d/ch%d(%.2gW)", tx.link,
                  net::to_string(tx.layer), tx.rate_level, tx.channel,
                  tx.power_watts);
    }
    std::printf("\n");
  }
  return 0;
}

// Indoor geometric scenario: instead of the paper's i.i.d. uniform gains,
// place transmitter/receiver pairs in a room, derive 60 GHz path loss and
// directional antenna cross-gains from the geometry, and solve the same
// resource-allocation problem.  Shows the library working on a physically-
// motivated channel model and how beamwidth changes spatial reuse.
//
//   ./examples/indoor_geometric [--links=8] [--channels=3] [--seed=5]
//                               [--beamwidth=0.6]
#include <cmath>
#include <cstdio>
#include <iostream>
#include <limits>
#include <memory>

#include "common/cli.h"
#include "common/table.h"
#include "core/column_generation.h"
#include "sched/timeline.h"
#include "video/demand.h"

int main(int argc, char** argv) {
  using namespace mmwave;
  common::CliFlags flags;
  flags.parse(argc, argv);
  const auto links_flag = flags.get_int_checked("links", 8, 1, 4096);
  const auto channels_flag = flags.get_int_checked("channels", 3, 1, 1024);
  const auto seed_flag = flags.get_int_checked("seed", 5, 0);
  const auto beamwidth_flag = flags.get_double_checked(
      "beamwidth", 0.6, std::numeric_limits<double>::min(), 2.0 * M_PI);
  for (const common::Status& status :
       {links_flag.status(), channels_flag.status(), seed_flag.status(),
        beamwidth_flag.status(), flags.check_unused()}) {
    if (!status.ok()) {
      std::fprintf(stderr, "error: %s\n", status.message().c_str());
      return 2;
    }
  }
  const int links = static_cast<int>(links_flag.value());
  const int channels = static_cast<int>(channels_flag.value());
  const auto seed = static_cast<std::uint64_t>(seed_flag.value());
  const double beamwidth = beamwidth_flag.value();

  common::Rng rng(seed);
  net::NetworkParams params;
  params.num_links = links;
  params.num_channels = channels;
  params.noise_watts = 1e-4;  // realistic link margin for path-loss gains

  net::GeometricChannelConfig gcfg;
  gcfg.beamwidth_rad = beamwidth;
  auto model = std::make_unique<net::GeometricChannelModel>(
      links, channels, params.noise_watts, gcfg, rng);
  const net::Placement& placement = model->placement();
  net::Network net(params, std::move(model));

  std::printf("Indoor room %.0fm x %.0fm, beamwidth %.2f rad:\n",
              gcfg.room_size_m, gcfg.room_size_m, beamwidth);
  for (const net::Link& l : placement.links) {
    const auto& tx = placement.node_pos[l.tx_node];
    const auto& rx = placement.node_pos[l.rx_node];
    std::printf("  link %2d: tx(%.1f, %.1f) -> rx(%.1f, %.1f)  |d|=%.1fm\n",
                l.id, tx.x, tx.y, rx.x, rx.y, net::distance(tx, rx));
  }

  video::DemandConfig demand_cfg;
  demand_cfg.demand_scale = 1e-4;
  common::Rng demand_rng = rng.fork(1);
  const auto demands = video::make_link_demands(links, demand_cfg, demand_rng);

  const auto result = core::solve_column_generation(net, demands);
  const auto exec = sched::execute_timeline(net, result.timeline, demands);

  std::printf("\nOptimal scheduling time: %.1f slots | demands met: %s\n",
              result.total_slots, exec.all_demands_met ? "yes" : "NO");

  // How much spatial reuse did the optimizer find?
  double reuse_weighted = 0.0;
  for (const auto& ts : result.timeline)
    reuse_weighted += ts.slots * static_cast<double>(ts.schedule.size());
  std::printf("Average concurrent transmissions: %.2f\n",
              result.total_slots > 0 ? reuse_weighted / result.total_slots
                                     : 0.0);

  common::Table table({"schedule", "tau (slots)", "active links"});
  int idx = 0;
  for (const auto& ts : result.timeline) {
    std::string who;
    for (const auto& tx : ts.schedule.transmissions()) {
      who += "L" + std::to_string(tx.link) + "/ch" +
             std::to_string(tx.channel) + " ";
    }
    table.new_row().add(idx++).add(ts.slots, 1).add(who);
  }
  table.print(std::cout);
  return 0;
}

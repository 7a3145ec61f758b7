// Multi-user video streaming scenario (the paper's motivating workload):
// several uncompressed-quality HD sessions share a 5-channel 60 GHz piconet.
// Compares the column-generation PNC scheduler against the paper's two
// benchmarks and plain TDMA, reporting scheduling time, delay, fairness and
// the PSNR each session sustains.
//
//   ./examples/video_streaming [--links=12] [--channels=5] [--seed=7]
//                              [--demand-scale=2e-4]
#include <cstdio>
#include <iostream>

#include "baselines/baselines.h"
#include "common/cli.h"
#include "common/table.h"
#include "core/column_generation.h"
#include "sched/timeline.h"
#include "video/demand.h"

int main(int argc, char** argv) {
  using namespace mmwave;
  common::CliFlags flags;
  flags.parse(argc, argv);
  const auto links_flag = flags.get_int_checked("links", 12, 1, 4096);
  const auto channels_flag = flags.get_int_checked("channels", 5, 1, 1024);
  const auto seed_flag = flags.get_int_checked("seed", 7, 0);
  const auto scale_flag =
      flags.get_double_checked("demand-scale", 2e-4, 1e-18, 1e18);
  for (const common::Status& status :
       {links_flag.status(), channels_flag.status(), seed_flag.status(),
        scale_flag.status(), flags.check_unused()}) {
    if (!status.ok()) {
      std::fprintf(stderr, "error: %s\n", status.message().c_str());
      return 2;
    }
  }
  const int links = static_cast<int>(links_flag.value());
  const int channels = static_cast<int>(channels_flag.value());
  const auto seed = static_cast<std::uint64_t>(seed_flag.value());
  const double scale = scale_flag.value();

  common::Rng rng(seed);
  net::NetworkParams params;
  params.num_links = links;
  params.num_channels = channels;
  net::Network net = net::Network::table_i(params, rng);

  video::DemandConfig demand_cfg;
  demand_cfg.demand_scale = scale;
  common::Rng demand_rng = rng.fork(1);
  const auto demands = video::make_link_demands(links, demand_cfg, demand_rng);

  std::printf(
      "Multi-user video streaming: %d sessions (~%.1f Mbit per GOP period, "
      "simulated at %.0e scale), %d channels\n\n",
      links, demands[0].total() / 1e6 / scale, scale, channels);

  core::CgOptions cg_opts;
  cg_opts.pricing = core::PricingMode::HeuristicOnly;
  const auto cg = core::solve_column_generation(net, demands, cg_opts);
  const auto b1 = baselines::benchmark1(net, demands);
  const auto b2 = baselines::benchmark2(net, demands);
  const auto td = baselines::tdma(net, demands);

  video::PsnrModel psnr;
  const double gop_seconds = 0.5;  // 12-frame GOP at 24 fps

  common::Table table({"algorithm", "sched time (slots)", "avg delay",
                       "fairness", "served", "mean PSNR (dB)"});
  auto report = [&](const char* name,
                    const std::vector<sched::TimedSchedule>& timeline,
                    bool served, sched::ExecutionOrder order) {
    const auto exec = sched::execute_timeline(net, timeline, demands, order);
    double psnr_sum = 0.0;
    for (int l = 0; l < links; ++l) {
      const double rate =
          (exec.hp_delivered_bits[l] + exec.lp_delivered_bits[l]) /
          gop_seconds / scale;  // undo the demo down-scaling
      psnr_sum += psnr.psnr(rate);
    }
    table.new_row()
        .add(name)
        .add(exec.total_slots, 1)
        .add(exec.all_demands_met ? exec.average_delay() : -1.0, 1)
        .add(exec.delay_fairness(), 4)
        .add(served && exec.all_demands_met ? "yes" : "NO")
        .add(psnr_sum / links, 2);
  };

  report("column generation", cg.timeline, true,
         sched::ExecutionOrder::DenseFirst);
  report("benchmark 1 [17]", b1.timeline, b1.served_all,
         sched::ExecutionOrder::AsGiven);
  report("benchmark 2 [9,10]+[8]", b2.timeline, b2.served_all,
         sched::ExecutionOrder::AsGiven);
  report("TDMA", td.timeline, td.served_all,
         sched::ExecutionOrder::AsGiven);
  table.print(std::cout);

  std::printf("\nColumn generation used %d iterations and %zu concurrent "
              "transmission patterns.\n",
              cg.iterations, cg.timeline.size());
  return 0;
}

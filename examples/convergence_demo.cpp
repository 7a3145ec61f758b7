// Convergence study (the paper's Fig. 4 up close): per-iteration upper
// bound (restricted master objective), Theorem-1 lower bound, and the most
// negative reduced cost Phi, printed as the algorithm closes the gap.
//
//   ./examples/convergence_demo [--links=8] [--channels=3] [--seed=3]
#include <cmath>
#include <cstdio>
#include <iostream>

#include "common/cli.h"
#include "common/table.h"
#include "core/column_generation.h"
#include "video/demand.h"

int main(int argc, char** argv) {
  using namespace mmwave;
  common::CliFlags flags;
  flags.parse(argc, argv);
  const auto links_flag = flags.get_int_checked("links", 8, 1, 4096);
  const auto channels_flag = flags.get_int_checked("channels", 3, 1, 1024);
  const auto seed_flag = flags.get_int_checked("seed", 3, 0);
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

  common::Rng rng(seed);
  net::NetworkParams params;
  params.num_links = links;
  params.num_channels = channels;
  params.sinr_thresholds = {0.1, 0.2, 0.3};  // Q=3 keeps exact pricing quick
  net::Network net = net::Network::table_i(params, rng);

  video::DemandConfig demand_cfg;
  demand_cfg.demand_scale = 1e-4;
  common::Rng demand_rng = rng.fork(1);
  const auto demands = video::make_link_demands(links, demand_cfg, demand_rng);

  core::CgOptions opts;
  opts.pricing = core::PricingMode::ExactAlways;  // exact Phi per iteration
  const auto result = core::solve_column_generation(net, demands, opts);

  common::Table table({"iter", "upper bound (slots)", "lower bound",
                       "best LB", "Phi", "columns"});
  for (const auto& it : result.history) {
    table.new_row()
        .add(it.iteration)
        .add(it.master_objective, 1)
        .add(std::isnan(it.lower_bound) ? std::string("-")
                                        : common::format_double(
                                              it.lower_bound, 1))
        .add(std::isnan(it.best_lower_bound)
                 ? std::string("-")
                 : common::format_double(it.best_lower_bound, 1))
        .add(it.phi, 6)
        .add(it.num_columns);
  }
  table.print(std::cout);

  std::printf(
      "\n%s after %d iterations: optimum %.1f slots, certified gap %.2e\n",
      result.converged ? "Converged" : "Stopped", result.iterations,
      result.total_slots, result.gap());
  std::printf("Phi rose to %.3g (0 means no schedule can price out).\n",
              result.history.back().phi);
  return 0;
}

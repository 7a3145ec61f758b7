// Ablation: the layer-split extension.
//
// The paper's Section III remarks that a session's HP and LP data "may be
// carried on different channels at each time slot", yet its constraint (30)
// forbids exactly that.  This bench quantifies what the relaxed formulation
// buys: optimal scheduling time with strict (30) versus with per-layer
// channel assignments, across interference regimes.
#include "harness.h"

int main(int argc, char** argv) {
  using namespace mmwave;
  common::CliFlags flags;
  flags.parse(argc, argv);
  const int links = static_cast<int>(
      bench::require(flags.get_int_checked("links", 5, 1, 4096)));
  const int channels = static_cast<int>(
      bench::require(flags.get_int_checked("channels", 2, 1, 1024)));
  const int seeds = static_cast<int>(
      bench::require(flags.get_int_checked("seeds", 3, 1, 1'000'000)));
  bench::reject_unknown_flags(flags);

  std::cout << "=== Ablation — HP/LP layer splitting across channels ===\n";
  std::cout << "L=" << links << " K=" << channels
            << " Q=2, exact pricing, seeds=" << seeds << "\n\n";

  common::Table table({"Gamma scale", "strict (30) slots",
                       "layer split slots", "split/strict"});
  for (double gamma : {1.0, 3.0, 5.0}) {
    std::vector<double> strict_slots, split_slots;
    for (int s = 0; s < seeds; ++s) {
      common::Rng rng(0x5917 + 4099ULL * static_cast<std::uint64_t>(s));
      net::NetworkParams params;
      params.num_links = links;
      params.num_channels = channels;
      params.sinr_thresholds = {0.1 * gamma, 0.2 * gamma};
      net::Network net = net::Network::table_i(params, rng);
      video::DemandConfig dcfg;
      dcfg.demand_scale = 1e-4;
      common::Rng drng = rng.fork(0x5EED);
      const auto demands =
          video::make_link_demands(links, dcfg, drng);

      core::CgOptions strict;
      strict.pricing = core::PricingMode::ExactAlways;
      strict.exact.milp.time_limit_sec = 2.0;
      strict.exact.milp.max_nodes = 20'000;
      const auto base =
          core::solve_column_generation(net, demands, strict);
      core::CgOptions split = strict;
      split.exact.allow_layer_split = true;
      const auto ext = core::solve_column_generation(net, demands, split);
      strict_slots.push_back(base.total_slots);
      split_slots.push_back(ext.total_slots);
    }
    const auto a = common::summarize(strict_slots);
    const auto b = common::summarize(split_slots);
    table.new_row()
        .add(gamma, 1)
        .add_ci(a.mean, a.ci_halfwidth, 1)
        .add_ci(b.mean, b.ci_halfwidth, 1)
        .add(a.mean > 0 ? b.mean / a.mean : 0.0, 4);
  }
  table.print(std::cout);
  std::cout << "\nsplit/strict <= 1 by construction; the gap is the value "
               "of letting HP and LP ride different channels.\n";
  return 0;
}

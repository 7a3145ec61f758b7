// Ablation: optimality audit.
//
// On instances small enough for exhaustive feasible-schedule enumeration,
// compare the column-generation optimum against the true P1 optimum and
// report the gap (it must be ~0 when CG certifies convergence), plus how
// many columns CG needed versus the full schedule space — the paper's core
// complexity argument.
#include "harness.h"

int main(int argc, char** argv) {
  using namespace mmwave;
  common::CliFlags flags;
  flags.parse(argc, argv);
  const int links = static_cast<int>(
      bench::require(flags.get_int_checked("links", 4, 1, 4096)));
  const int channels = static_cast<int>(
      bench::require(flags.get_int_checked("channels", 2, 1, 1024)));
  const int levels = static_cast<int>(
      bench::require(flags.get_int_checked("levels", 2, 1, 64)));
  const int seeds = static_cast<int>(
      bench::require(flags.get_int_checked("seeds", 10, 1, 1'000'000)));
  bench::reject_unknown_flags(flags);

  std::cout << "=== Ablation — CG vs exhaustive P1 optimum ===\n";
  std::cout << "L=" << links << " K=" << channels << " Q=" << levels
            << " over " << seeds << " seeds\n\n";

  common::Table table({"seed", "exhaustive (slots)", "CG (slots)",
                       "rel gap", "schedules enumerated", "CG columns",
                       "CG iterations"});
  double worst_gap = 0.0;
  for (int s = 0; s < seeds; ++s) {
    common::Rng rng(0xA110 + 37ULL * static_cast<std::uint64_t>(s));
    net::NetworkParams params;
    params.num_links = links;
    params.num_channels = channels;
    params.sinr_thresholds.resize(levels);
    for (int q = 0; q < levels; ++q)
      params.sinr_thresholds[q] = 0.1 * (q + 1);
    net::Network net = net::Network::table_i(params, rng);

    video::DemandConfig dcfg;
    dcfg.demand_scale = 1e-4;
    common::Rng demand_rng = rng.fork(0x5EED);
    const auto demands =
        video::make_link_demands(links, dcfg, demand_rng);

    const auto exact = baselines::exhaustive_optimal(net, demands);
    core::CgOptions opts;
    opts.pricing = core::PricingMode::ExactAlways;
    const auto cg = core::solve_column_generation(net, demands, opts);

    const double gap =
        exact.ok ? (cg.total_slots - exact.total_slots) /
                       std::max(1e-12, exact.total_slots)
                 : std::nan("");
    worst_gap = std::max(worst_gap, std::abs(gap));
    table.new_row()
        .add(s)
        .add(exact.ok ? common::format_double(exact.total_slots, 2)
                      : std::string("(truncated)"))
        .add(cg.total_slots, 2)
        .add(gap, 8)
        .add(exact.num_feasible_schedules)
        .add(cg.timeline.size())
        .add(cg.iterations);
  }
  table.print(std::cout);
  std::cout << "\nworst |relative gap| = "
            << common::format_double(worst_gap, 10) << "\n";
  return 0;
}

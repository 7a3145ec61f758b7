// Figure 4: convergence of the column-generation algorithm.
//
// Per-iteration series on a single instance with *exact* MILP pricing:
//   * the restricted master objective (upper bound) — non-increasing;
//   * the Theorem-1 lower bound and its running best — converging upward
//     (the paper notes the raw bound need not be monotone);
//   * the most negative reduced cost Phi — rising to 0 at optimality.
//
// Exact pricing bounds the instance size.  Defaults (L=8, K=2, Q=3,
// gamma-scale=3) put the network in a binding-interference regime where the
// curve is informative and the run takes seconds; under the raw Table I
// parameters (K=5, Gamma <= 0.5) spatial reuse is so easy that CG certifies
// optimality within ~3 iterations — run with --channels=5 --gamma-scale=1
// to see that, and see EXPERIMENTS.md for the discussion.
#include <cmath>

#include "harness.h"

int main(int argc, char** argv) {
  using namespace mmwave;
  common::CliFlags flags;
  flags.parse(argc, argv);
  const int links = static_cast<int>(
      bench::require(flags.get_int_checked("links", 8, 1, 4096)));
  const int channels = static_cast<int>(
      bench::require(flags.get_int_checked("channels", 2, 1, 1024)));
  const int levels = static_cast<int>(
      bench::require(flags.get_int_checked("levels", 3, 1, 64)));
  const std::uint64_t seed = static_cast<std::uint64_t>(
      bench::require(flags.get_int_checked("seed", 1, 0)));
  const double demand_scale = bench::require(
      flags.get_double_checked("demand-scale", 1e-3, 1e-18, 1e18));
  // Table I's Gamma = {0.1..0.5} is so permissive that almost every link
  // set packs concurrently and CG converges in a couple of iterations (the
  // curve is a step).  Scaling the thresholds makes pricing combinatorial
  // and reproduces the paper's gradual convergence shape; --gamma-scale=1
  // recovers the raw Table I ladder.
  const double gamma_scale = bench::require(
      flags.get_double_checked("gamma-scale", 3.0, 1e-9, 1e9));
  const double milp_time =
      bench::require(flags.get_double_checked("milp-time", 5.0, 0.0, 1e9));
  const std::int64_t milp_nodes =
      bench::require(flags.get_int_checked("milp-nodes", 200'000, 1));
  bench::reject_unknown_flags(flags);

  std::cout << "=== Fig. 4 — column-generation convergence ===\n";
  std::cout << "L=" << links << " K=" << channels << " Q=" << levels
            << " gamma-scale=" << gamma_scale << " seed=" << seed
            << " (exact MILP pricing every iteration)\n\n";

  common::Rng rng(seed);
  net::NetworkParams params;
  params.num_links = links;
  params.num_channels = channels;
  params.sinr_thresholds.resize(levels);
  for (int q = 0; q < levels; ++q)
    params.sinr_thresholds[q] = 0.1 * (q + 1) * gamma_scale;
  net::Network net = net::Network::table_i(params, rng);

  video::DemandConfig dcfg;
  dcfg.demand_scale = demand_scale;
  common::Rng demand_rng = rng.fork(0x5EED);
  const auto demands = video::make_link_demands(links, dcfg, demand_rng);

  core::CgOptions opts;
  opts.pricing = core::PricingMode::ExactAlways;
  opts.exact.milp.max_nodes = milp_nodes;
  opts.exact.milp.time_limit_sec = milp_time;
  const auto result = core::solve_column_generation(net, demands, opts);

  common::Table table({"iteration", "OFV upper bound", "lower bound",
                       "best lower bound", "Phi"});
  for (const auto& it : result.history) {
    table.new_row()
        .add(it.iteration)
        .add(it.master_objective, 1)
        .add(std::isnan(it.lower_bound)
                 ? std::string("-")
                 : common::format_double(it.lower_bound, 1))
        .add(std::isnan(it.best_lower_bound)
                 ? std::string("-")
                 : common::format_double(it.best_lower_bound, 1))
        .add(it.phi, 6);
  }
  table.print(std::cout);

  std::cout << "\nConverged: " << (result.converged ? "yes" : "no")
            << " | optimum " << common::format_double(result.total_slots, 1)
            << " slots | certified gap "
            << common::format_double(result.gap(), 8) << "\n";
  return 0;
}

// Figure 2: average per-link delay.
//
// The figure caption sweeps the number of links; the body text discusses
// the sweep "under various link traffic demand" — we emit both tables.
// Delay of a link = time from the start of the scheduling period until its
// HP+LP demand is fully served.  Expected shape: CG lowest everywhere,
// growing with both L and the demand volume.
#include "harness.h"

int main(int argc, char** argv) {
  using namespace mmwave;
  bench::HarnessConfig base;
  base.cg.pricing = core::PricingMode::HeuristicOnly;
  base = bench::parse_common_flags(argc, argv, base);
  bench::print_config_banner(base, "Fig. 2 — average delay");

  const std::vector<double> regimes =
      base.gamma_scale_given ? std::vector<double>{base.gamma_scale}
                             : std::vector<double>{1.0, 3.0};
  bench::HarnessConfig cfg = base;  // regime for part (b) set below
  std::cout << "(a) delay vs number of links\n";
  for (double gamma : regimes) {
    cfg = base;
    cfg.gamma_scale = gamma;
    std::cout << "Gamma x" << gamma << ":\n";
    common::Table by_links({"links", "CG delay (slots)", "Benchmark 1",
                            "Benchmark 2"});
    for (std::int64_t links : cfg.link_counts) {
      const auto point = bench::run_comparison(static_cast<int>(links), cfg);
      const auto cg = common::summarize(point.cg_d);
      const auto b1 = common::summarize(point.b1_d);
      const auto b2 = common::summarize(point.b2_d);
      by_links.new_row()
          .add(links)
          .add_ci(cg.mean, cg.ci_halfwidth, 0)
          .add_ci(b1.mean, b1.ci_halfwidth, 0)
          .add_ci(b2.mean, b2.ci_halfwidth, 0);
    }
    bench::finish_table(by_links, cfg);
    std::cout << "\n";
  }

  // (b) delay vs traffic demand at fixed L (the text's sweep).
  const int fixed_links =
      static_cast<int>(cfg.link_counts[cfg.link_counts.size() / 2]);
  common::Table by_demand({"demand scale", "CG delay (slots)", "Benchmark 1",
                           "Benchmark 2"});
  for (double mult : {0.5, 1.0, 1.5, 2.0, 2.5}) {
    bench::HarnessConfig scaled = cfg;
    scaled.demand_scale = cfg.demand_scale * mult;
    scaled.csv_path.reset();
    const auto point = bench::run_comparison(fixed_links, scaled);
    const auto cg = common::summarize(point.cg_d);
    const auto b1 = common::summarize(point.b1_d);
    const auto b2 = common::summarize(point.b2_d);
    by_demand.new_row()
        .add(mult, 1)
        .add_ci(cg.mean, cg.ci_halfwidth, 0)
        .add_ci(b1.mean, b1.ci_halfwidth, 0)
        .add_ci(b2.mean, b2.ci_halfwidth, 0);
  }
  std::cout << "\n(b) delay vs traffic demand (x base scale, L="
            << fixed_links << ")\n";
  by_demand.print(std::cout);
  return 0;
}

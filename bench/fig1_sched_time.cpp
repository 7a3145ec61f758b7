// Figure 1: overall scheduling time versus number of links.
//
// Paper series: proposed column-generation algorithm vs Benchmark 1 [17]
// and Benchmark 2 [9][10] (both combined with the [8] channel allocator),
// L in {10..30}, K = 5, 95% confidence intervals over repeated seeds.
// Expected shape: all curves increase with L; CG lowest at every L with the
// gap widening as interference coupling grows.
#include "harness.h"

int main(int argc, char** argv) {
  using namespace mmwave;
  bench::HarnessConfig base;
  base.cg.pricing = core::PricingMode::HeuristicOnly;
  base = bench::parse_common_flags(argc, argv, base);
  bench::print_config_banner(base,
                             "Fig. 1 — scheduling time vs number of links");

  // Two regimes unless the caller pinned one: the literal Table I ladder
  // and the binding-interference x3 ladder (see EXPERIMENTS.md).
  const std::vector<double> regimes =
      base.gamma_scale_given ? std::vector<double>{base.gamma_scale}
                             : std::vector<double>{1.0, 3.0};
  for (double gamma : regimes) {
    bench::HarnessConfig cfg = base;
    cfg.gamma_scale = gamma;
    std::cout << "Gamma x" << gamma << ":\n";
    common::Table table({"links", "CG (slots)", "Benchmark 1", "Benchmark 2",
                         "B1/B2 unserved", "CG/B2"});
    for (std::int64_t links : cfg.link_counts) {
      const auto point = bench::run_comparison(static_cast<int>(links), cfg);
      const auto cg = common::summarize(point.cg);
      const auto b1 = common::summarize(point.b1);
      const auto b2 = common::summarize(point.b2);
      table.new_row()
          .add(links)
          .add_ci(cg.mean, cg.ci_halfwidth, 0)
          .add_ci(b1.mean, b1.ci_halfwidth, 0)
          .add_ci(b2.mean, b2.ci_halfwidth, 0)
          .add(std::to_string(point.b1_failures) + "/" +
               std::to_string(point.b2_failures))
          .add(b2.mean > 0 ? cg.mean / b2.mean : 0.0, 3);
    }
    bench::finish_table(table, cfg);
    std::cout << "\n";
  }
  return 0;
}

// Figure 3: Jain fairness index of per-link delay versus number of links.
//
// f({e}) = (sum e)^2 / (L * sum e^2) over per-link delays e_l.  Expected
// shape: CG consistently highest (its min-total-time objective has a minmax
// flavor over link completion times); benchmarks lower and noisier, with
// confidence intervals tightening as L grows.
#include "harness.h"

int main(int argc, char** argv) {
  using namespace mmwave;
  bench::HarnessConfig base;
  base.cg.pricing = core::PricingMode::HeuristicOnly;
  base = bench::parse_common_flags(argc, argv, base);
  bench::print_config_banner(base,
                             "Fig. 3 — delay fairness vs number of links");

  const std::vector<double> regimes =
      base.gamma_scale_given ? std::vector<double>{base.gamma_scale}
                             : std::vector<double>{1.0, 3.0};
  for (double gamma : regimes) {
    bench::HarnessConfig cfg = base;
    cfg.gamma_scale = gamma;
    std::cout << "Gamma x" << gamma << ":\n";
    common::Table table({"links", "CG fairness", "Benchmark 1",
                         "Benchmark 2"});
    for (std::int64_t links : cfg.link_counts) {
      const auto point = bench::run_comparison(static_cast<int>(links), cfg);
      const auto cg = common::summarize(point.cg_f);
      const auto b1 = common::summarize(point.b1_f);
      const auto b2 = common::summarize(point.b2_f);
      table.new_row()
          .add(links)
          .add_ci(cg.mean, cg.ci_halfwidth, 4)
          .add_ci(b1.mean, b1.ci_halfwidth, 4)
          .add_ci(b2.mean, b2.ci_halfwidth, 4);
    }
    bench::finish_table(table, cfg);
    std::cout << "\n";
  }
  return 0;
}

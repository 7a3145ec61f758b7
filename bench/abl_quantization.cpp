// Ablation: slot quantization of the fluid relaxation.
//
// P1 allows fractional schedule durations; a deployed PNC grants whole
// slots.  This bench rounds the optimal fluid plan to integral slots (while
// still meeting every demand) and reports the relative overhead versus the
// fluid optimum as the demand volume grows — showing the paper's fluid
// relaxation is asymptotically exact and quantifying the error at small
// GOP volumes.
#include "harness.h"
#include "sched/quantize.h"

int main(int argc, char** argv) {
  using namespace mmwave;
  common::CliFlags flags;
  flags.parse(argc, argv);
  const int links = static_cast<int>(
      bench::require(flags.get_int_checked("links", 10, 1, 4096)));
  const int channels = static_cast<int>(
      bench::require(flags.get_int_checked("channels", 3, 1, 1024)));
  const int seeds = static_cast<int>(
      bench::require(flags.get_int_checked("seeds", 10, 1, 1'000'000)));
  bench::reject_unknown_flags(flags);

  std::cout << "=== Ablation — slot quantization overhead ===\n";
  std::cout << "L=" << links << " K=" << channels << " seeds=" << seeds
            << "\n\n";

  common::Table table({"demand scale", "fluid slots", "quantized slots",
                       "overhead %"});
  for (double scale : {1e-5, 1e-4, 1e-3, 1e-2}) {
    std::vector<double> fluid, quantized, overhead;
    for (int s = 0; s < seeds; ++s) {
      const auto inst = bench::make_instance(
          links, channels, scale,
          0x0A17 + 13007ULL * static_cast<std::uint64_t>(s));
      core::CgOptions opts;
      opts.pricing = core::PricingMode::HeuristicOnly;
      const auto cg =
          core::solve_column_generation(inst.net, inst.demands, opts);
      const auto q =
          sched::quantize_timeline(inst.net, cg.timeline, inst.demands);
      fluid.push_back(q.fluid_slots);
      quantized.push_back(q.quantized_slots);
      overhead.push_back(100.0 * q.overhead());
    }
    const auto f = common::summarize(fluid);
    const auto qn = common::summarize(quantized);
    const auto ov = common::summarize(overhead);
    table.new_row()
        .add(scale, 5)
        .add_ci(f.mean, f.ci_halfwidth, 1)
        .add_ci(qn.mean, qn.ci_halfwidth, 1)
        .add_ci(ov.mean, ov.ci_halfwidth, 2);
  }
  table.print(std::cout);
  std::cout << "\nOverhead ~ (#schedules / total slots): negligible at GOP "
               "volumes, visible only for tiny demands.\n";
  return 0;
}

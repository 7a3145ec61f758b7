// Ablation: dynamic link blockage (extension experiment).
//
// The paper optimizes one static period; its companion works ([4]-[6])
// study blockage-prone 60 GHz links.  This bench replays the paper's
// per-period optimization over a multi-GOP streaming horizon with a
// two-state Markov blockage process and compares per-period re-solving
// against a blockage-oblivious schedule, across blockage intensities.
#include "harness.h"
#include "stream/blockage_session.h"

int main(int argc, char** argv) {
  using namespace mmwave;
  common::CliFlags flags;
  flags.parse(argc, argv);
  const int links = static_cast<int>(
      bench::require(flags.get_int_checked("links", 8, 1, 4096)));
  const int channels = static_cast<int>(
      bench::require(flags.get_int_checked("channels", 3, 1, 1024)));
  const int gops = static_cast<int>(
      bench::require(flags.get_int_checked("gops", 10, 1, 1 << 20)));
  const int seeds = static_cast<int>(
      bench::require(flags.get_int_checked("seeds", 8, 1, 1'000'000)));
  bench::reject_unknown_flags(flags);

  std::cout << "=== Ablation — streaming under Markov blockage ===\n";
  std::cout << "L=" << links << " K=" << channels << " horizon=" << gops
            << " GOPs, -20 dB blockage, seeds=" << seeds << "\n\n";

  common::Table table({"p(block)", "policy", "on-time GOPs",
                       "stall (slots)", "mean PSNR (dB)"});
  for (double p_block : {0.0, 0.15, 0.3, 0.5}) {
    for (int aware = 1; aware >= 0; --aware) {
      std::vector<double> on_time, stall, psnr;
      for (int s = 0; s < seeds; ++s) {
        net::NetworkParams params;
        params.num_links = links;
        params.num_channels = channels;
        common::Rng model_rng(0xB10C + 257ULL * s);
        net::TableIChannelModel base(links, channels, params.noise_watts,
                                     model_rng);
        stream::BlockageSessionConfig cfg;
        cfg.session.num_gops = gops;
        cfg.session.demand_scale = 2e-3;
        cfg.blockage.p_block = p_block;
        cfg.blockage.p_recover = 0.5;
        cfg.blockage.attenuation = 0.05;  // -13 dB: partial blockage
        cfg.reschedule_each_period = aware == 1;
        common::Rng rng(1000 + s);
        const auto m = stream::run_blockage_session(
            base, params, cfg, stream::make_cg_scheduler({}), rng);
        on_time.push_back(m.base.on_time_ratio);
        stall.push_back(m.base.total_stall_slots);
        psnr.push_back(m.base.mean_psnr_db);
      }
      const auto ot = common::summarize(on_time);
      const auto st = common::summarize(stall);
      const auto ps = common::summarize(psnr);
      table.new_row()
          .add(p_block, 2)
          .add(aware ? "re-solve each period" : "oblivious")
          .add_ci(100.0 * ot.mean, 100.0 * ot.ci_halfwidth, 1)
          .add_ci(st.mean, st.ci_halfwidth, 0)
          .add_ci(ps.mean, ps.ci_halfwidth, 2);
    }
  }
  table.print(std::cout);
  std::cout << "\nExpected shape: both policies identical at p=0; the "
               "oblivious policy's PSNR and on-time ratio degrade much "
               "faster with blockage intensity.\n";
  return 0;
}

// perf_qoe — client-buffer QoE bench: drain-risk demand shaping vs the
// buffer-blind baseline on seeded Markov blockage traces.
//
// For each seed the SAME session (network, demand streams, blockage chain)
// runs twice — once per demand policy — and the per-link client buffers
// report playback stall seconds, rebuffer events and the layer-delivery
// ratio.  Blockage here is deep (attenuation pushes blocked links below
// every SINR threshold), so a blocked period delivers nothing and a
// buffer-blind session stalls through it; the drain-risk policy prefetches
// on unblocked periods (at-risk links bid higher) to ride the streaks out.
//
// The bench is also the acceptance gate for that mechanism (exit 1 if it
// fails): the drain-risk policy must STRICTLY reduce total stall seconds on
// at least --min-improved seeded traces, never increase any seed's stall,
// and hold every seed's layer-delivery ratio no worse than blind's.
//
//   perf_qoe [--seeds=N] [--gops=G] [--links --channels] [--p-block=p]
//            [--p-recover=r] [--block-atten=a] [--min-improved=K]
//            [--out=BENCH_qoe.json]
//
// Exit status: 0 gate passed, 1 gate failed, 2 a malformed or out-of-range
// flag value (K must lie in [0, N]) or a flag the bench does not accept.
//
// Everything reported is deterministic (no timing fields), so the JSON is a
// pinnable artifact of the policy's effect, not a machine-speed sample.
#include <cstdint>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/cli.h"
#include "stream/blockage_session.h"

namespace {

using namespace mmwave;

struct RunResult {
  double stall_seconds = 0.0;
  int rebuffer_events = 0;
  double layer_delivery_ratio = 0.0;
  double on_time_ratio = 0.0;
  double mean_blocked_fraction = 0.0;
};

struct BenchConfig {
  int links = 5;
  int channels = 2;
  int gops = 24;
  double p_block = 0.4;
  double p_recover = 0.5;
  double attenuation = 1e-3;
};

RunResult run_once(const BenchConfig& bc, std::uint64_t seed,
                   const stream::DemandPolicy* policy) {
  net::NetworkParams params;
  params.num_links = bc.links;
  params.num_channels = bc.channels;
  common::Rng model_rng(seed);
  net::TableIChannelModel model(bc.links, bc.channels, params.noise_watts,
                                model_rng);

  stream::BlockageSessionConfig cfg;
  cfg.session.num_gops = bc.gops;
  cfg.session.demand_scale = 1e-4;  // ample capacity: QoE is blockage-bound
  cfg.blockage.p_block = bc.p_block;
  cfg.blockage.p_recover = bc.p_recover;
  cfg.blockage.attenuation = bc.attenuation;
  cfg.demand_policy = policy;

  stream::SolverContext context;
  common::Rng session_rng = model_rng.fork(1);
  const stream::BlockageSessionMetrics m = stream::run_blockage_session(
      model, params, cfg, stream::make_cg_scheduler({}, &context),
      session_rng, &context);

  RunResult r;
  r.stall_seconds = m.stall_seconds;
  r.rebuffer_events = m.rebuffer_events;
  r.layer_delivery_ratio = m.layer_delivery_ratio;
  r.on_time_ratio = m.base.on_time_ratio;
  r.mean_blocked_fraction = m.mean_blocked_fraction;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  common::CliFlags flags;
  flags.parse(argc, argv);
  // Strict flags: a malformed or out-of-range value, a flag the bench does
  // not accept or a stray argument exits 2 naming it — a typo must never
  // loosen the gate.
  common::Status bad;
  const auto int_flag = [&](const char* name, std::int64_t def,
                            std::int64_t lo, std::int64_t hi) {
    const auto v = flags.get_int_checked(name, def, lo, hi);
    if (!v.ok() && bad.ok()) bad = v.status();
    return static_cast<int>(v.ok() ? v.value() : def);
  };
  const auto double_flag = [&](const char* name, double def, double lo,
                               double hi) {
    const auto v = flags.get_double_checked(name, def, lo, hi);
    if (!v.ok() && bad.ok()) bad = v.status();
    return v.ok() ? v.value() : def;
  };
  BenchConfig bc;
  const int seeds = int_flag("seeds", 8, 1, 1 << 20);
  bc.gops = int_flag("gops", bc.gops, 1, 1 << 20);
  bc.links = int_flag("links", bc.links, 1, 4096);
  bc.channels = int_flag("channels", bc.channels, 1, 1024);
  bc.p_block = double_flag("p-block", bc.p_block, 0.0, 1.0);
  bc.p_recover = double_flag("p-recover", bc.p_recover, 0.0, 1.0);
  bc.attenuation =
      double_flag("block-atten", bc.attenuation,
                  std::numeric_limits<double>::min(), 1.0);
  const int min_improved = int_flag("min-improved", 3, 0, seeds);
  const std::string out_path = flags.get_string("out", "");
  if (bad.ok()) bad = flags.check_unused();
  if (!bad.ok()) {
    std::fprintf(stderr, "error: %s\n", bad.message().c_str());
    return 2;
  }

  const std::unique_ptr<stream::DemandPolicy> blind =
      stream::make_blind_policy();
  stream::ClientBufferConfig buffer_cfg;  // session defaults
  const std::unique_ptr<stream::DemandPolicy> drain =
      stream::make_drain_risk_policy(buffer_cfg);

  struct Row {
    std::uint64_t seed = 0;
    RunResult blind;
    RunResult drain;
  };
  std::vector<Row> rows;
  int improved = 0, stall_regressions = 0, ratio_regressions = 0;
  double blind_stall_total = 0.0, drain_stall_total = 0.0;
  for (int i = 0; i < seeds; ++i) {
    Row row;
    row.seed = 101 + 37 * static_cast<std::uint64_t>(i);
    row.blind = run_once(bc, row.seed, blind.get());
    row.drain = run_once(bc, row.seed, drain.get());
    blind_stall_total += row.blind.stall_seconds;
    drain_stall_total += row.drain.stall_seconds;
    if (row.drain.stall_seconds < row.blind.stall_seconds - 1e-9) ++improved;
    if (row.drain.stall_seconds > row.blind.stall_seconds + 1e-9) {
      std::fprintf(stderr,
                   "REGRESSION seed=%llu: drain-risk stall %.6f s > blind "
                   "%.6f s\n",
                   static_cast<unsigned long long>(row.seed),
                   row.drain.stall_seconds, row.blind.stall_seconds);
      ++stall_regressions;
    }
    if (row.drain.layer_delivery_ratio <
        row.blind.layer_delivery_ratio - 1e-9) {
      std::fprintf(stderr,
                   "REGRESSION seed=%llu: drain-risk layer ratio %.6f < "
                   "blind %.6f\n",
                   static_cast<unsigned long long>(row.seed),
                   row.drain.layer_delivery_ratio,
                   row.blind.layer_delivery_ratio);
      ++ratio_regressions;
    }
    std::printf(
        "seed=%4llu (blocked %4.1f%%): stall %7.3f -> %7.3f s | rebuffers "
        "%3d -> %3d | layer ratio %.3f -> %.3f\n",
        static_cast<unsigned long long>(row.seed),
        100.0 * row.blind.mean_blocked_fraction, row.blind.stall_seconds,
        row.drain.stall_seconds, row.blind.rebuffer_events,
        row.drain.rebuffer_events, row.blind.layer_delivery_ratio,
        row.drain.layer_delivery_ratio);
    rows.push_back(row);
  }

  const double reduction =
      blind_stall_total > 0.0
          ? 1.0 - drain_stall_total / blind_stall_total
          : 0.0;
  std::printf(
      "total stall: blind %.3f s, drain-risk %.3f s (%.1f%% reduction); "
      "improved on %d/%d seeds\n",
      blind_stall_total, drain_stall_total, 100.0 * reduction, improved,
      seeds);

  if (!out_path.empty()) {
    std::FILE* f = std::fopen(out_path.c_str(), "w");
    if (f != nullptr) {
      std::fprintf(f,
                   "{\"bench\":\"perf_qoe\",\"seeds\":%d,\"gops\":%d,"
                   "\"links\":%d,\"channels\":%d,\"p_block\":%.17g,"
                   "\"p_recover\":%.17g,\"block_atten\":%.17g,"
                   "\"blind_stall_seconds\":%.17g,"
                   "\"drain_risk_stall_seconds\":%.17g,"
                   "\"stall_reduction\":%.17g,\"improved_seeds\":%d,"
                   "\"rows\":[",
                   seeds, bc.gops, bc.links, bc.channels, bc.p_block,
                   bc.p_recover, bc.attenuation, blind_stall_total,
                   drain_stall_total, reduction, improved);
      for (std::size_t i = 0; i < rows.size(); ++i) {
        const Row& r = rows[i];
        std::fprintf(
            f,
            "%s{\"seed\":%llu,\"blocked_fraction\":%.17g,"
            "\"blind\":{\"stall_seconds\":%.17g,\"rebuffer_events\":%d,"
            "\"layer_delivery_ratio\":%.17g,\"on_time_ratio\":%.17g},"
            "\"drain_risk\":{\"stall_seconds\":%.17g,"
            "\"rebuffer_events\":%d,\"layer_delivery_ratio\":%.17g,"
            "\"on_time_ratio\":%.17g}}",
            i == 0 ? "" : ",", static_cast<unsigned long long>(r.seed),
            r.blind.mean_blocked_fraction, r.blind.stall_seconds,
            r.blind.rebuffer_events, r.blind.layer_delivery_ratio,
            r.blind.on_time_ratio, r.drain.stall_seconds,
            r.drain.rebuffer_events, r.drain.layer_delivery_ratio,
            r.drain.on_time_ratio);
      }
      std::fprintf(f, "]}\n");
      std::fclose(f);
      std::printf("report written to %s\n", out_path.c_str());
    } else {
      std::fprintf(stderr, "warning: cannot write %s\n", out_path.c_str());
    }
  }

  if (improved >= min_improved && stall_regressions == 0 &&
      ratio_regressions == 0) {
    return 0;
  }
  std::printf(
      "perf_qoe FAILED: improved %d/%d (need >= %d), %d stall regression(s), "
      "%d layer-ratio regression(s)\n",
      improved, seeds, min_improved, stall_regressions, ratio_regressions);
  return 1;
}

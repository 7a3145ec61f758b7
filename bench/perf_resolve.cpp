// Checkpoint-restart microbenchmark (google-benchmark): the one warm start
// left.  One instance is solved cold and resolved warm from its own
// checkpoint (the `solve --resume` path, core::resolve), and the
// checkpoint round trip is timed on its own.  A resolve against any other
// instance is the cold solve, which every other bench already measures.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/checkpoint.h"
#include "core/resolve.h"
#include "mmwave/network.h"
#include "video/demand.h"

namespace {

using namespace mmwave;

constexpr int kLinks = 6;
constexpr int kChannels = 2;
constexpr int kLevels = 3;

struct Instance {
  net::Network net;
  std::vector<video::LinkDemand> demands;
};

Instance make_instance(std::uint64_t seed) {
  net::NetworkParams params;
  params.num_links = kLinks;
  params.num_channels = kChannels;
  params.sinr_thresholds.resize(kLevels);
  for (int q = 0; q < kLevels; ++q) params.sinr_thresholds[q] = 0.1 * (q + 1);
  common::Rng rng(seed);
  net::Network net = net::Network::table_i(params, rng);
  common::Rng drng = rng.fork(0x5EED);
  std::vector<video::LinkDemand> demands(kLinks);
  for (auto& d : demands) {
    d.hp_bits = drng.uniform(500.0, 2000.0);
    d.lp_bits = drng.uniform(500.0, 2000.0);
  }
  return {std::move(net), std::move(demands)};
}

core::CgOptions solve_options() {
  core::CgOptions opts;
  opts.pricing = core::PricingMode::HeuristicThenExact;
  return opts;
}

/// Crash-restart pair: the same instance solved cold vs resolved warm from
/// its own checkpoint.  The warm master re-certifies the old optimum in
/// one or two iterations instead of re-deriving the pool.
void BM_RestartCold(benchmark::State& state) {
  const Instance inst = make_instance(17);
  std::int64_t iterations = 0;
  for (auto _ : state) {
    const core::CgResult r =
        core::solve_column_generation(inst.net, inst.demands, solve_options());
    iterations += r.iterations;
    benchmark::DoNotOptimize(iterations);
  }
  const double n =
      static_cast<double>(std::max<std::int64_t>(1, state.iterations()));
  state.counters["cg_iterations"] = static_cast<double>(iterations) / n;
}
BENCHMARK(BM_RestartCold);

void BM_RestartWarm(benchmark::State& state) {
  const Instance inst = make_instance(17);
  const core::CgResult first =
      core::solve_column_generation(inst.net, inst.demands, solve_options());
  const core::CgCheckpoint ckpt =
      core::make_checkpoint(inst.net, inst.demands, first);
  std::int64_t iterations = 0;
  for (auto _ : state) {
    const core::ResolveResult r =
        core::resolve(inst.net, inst.demands, ckpt, solve_options());
    iterations += r.cg.iterations;
    benchmark::DoNotOptimize(iterations);
  }
  const double n =
      static_cast<double>(std::max<std::int64_t>(1, state.iterations()));
  state.counters["cg_iterations"] = static_cast<double>(iterations) / n;
}
BENCHMARK(BM_RestartWarm);

/// Serialization overhead: the full save path (serialize + checksum) and
/// the strict parse, on a real solved checkpoint.
void BM_CheckpointRoundTrip(benchmark::State& state) {
  const Instance inst = make_instance(17);
  const core::CgResult r =
      core::solve_column_generation(inst.net, inst.demands, solve_options());
  const core::CgCheckpoint ckpt =
      core::make_checkpoint(inst.net, inst.demands, r);
  for (auto _ : state) {
    const std::string text = core::serialize_checkpoint(ckpt);
    auto parsed = core::parse_checkpoint(text);
    benchmark::DoNotOptimize(parsed.ok());
  }
  state.counters["bytes"] =
      static_cast<double>(core::serialize_checkpoint(ckpt).size());
}
BENCHMARK(BM_CheckpointRoundTrip);

}  // namespace

BENCHMARK_MAIN();

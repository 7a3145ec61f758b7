// Shared experiment harness for the figure-reproduction binaries.
//
// Every bench builds paper-configured instances (Table I), runs the
// algorithms under comparison over a seed batch, and prints the same
// rows/series the paper's figure reports (mean ± 95% CI).
//
// Common flags (each bench may add its own):
//   --seeds=N          number of random seeds per point (paper: 50)
//   --links=a,b,c      sweep over ||L||
//   --channels=K       number of channels (paper: 5)
//   --demand-scale=x   scaling of the per-GOP video demand
//   --threads=N        seeds solved concurrently (1 = serial reference,
//                      0 = auto / hardware_concurrency)
//   --csv=path         also write the table as CSV
//
// Flags are strict: a malformed or out-of-range value, a flag the bench
// does not read or a stray positional argument exits 2 with a one-line
// "error:" naming it, so a typo never runs a silently different experiment.
//
// Seed count: the paper averages every figure point over 50 random
// topologies; the default here is 10 to keep a full sweep interactive.
// The paper-faithful invocation is `--seeds=50 --threads=0`, which
// produces the same numbers as `--seeds=50 --threads=1` (each seed is an
// independent instance keyed only by its index, and results are reduced
// in index order), just wall-clock faster on multi-core machines.
#pragma once

#include <cstdlib>
#include <functional>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "baselines/baselines.h"
#include "check/instance_validator.h"
#include "common/cli.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"
#include "common/thread_pool.h"
#include "core/column_generation.h"
#include "mmwave/network.h"
#include "sched/timeline.h"
#include "video/demand.h"

namespace mmwave::bench {

struct Instance {
  net::Network net;
  std::vector<video::LinkDemand> demands;
};

struct HarnessConfig {
  std::vector<std::int64_t> link_counts{10, 15, 20, 25, 30};
  int channels = 5;
  int seeds = 10;
  /// The paper's full per-GOP demand (~86 Mbit/link) makes absolute slot
  /// counts astronomically large but scales the LP exactly linearly; the
  /// default keeps runtimes friendly while preserving every comparison.
  double demand_scale = 1e-3;
  /// Multiplier on the Table I SINR threshold ladder.  1.0 is the paper's
  /// exact Gamma = {0.1..0.5}; larger values put the network into a
  /// binding-interference regime (see EXPERIMENTS.md).
  double gamma_scale = 1.0;
  /// Seeds solved concurrently (each on its own instance).  1 = serial
  /// reference run; 0 = auto (hardware_concurrency).  Results are
  /// identical for every value — see the determinism note above.
  int threads = 1;
  std::optional<std::string> csv_path;
  core::CgOptions cg;
  /// True when --gamma-scale was given: the figure benches then run that
  /// one regime instead of both.
  bool gamma_scale_given = false;
};

/// The value of a checked flag read; a malformed or out-of-range value
/// exits 2 with its one-line "error: --name: ..." diagnosis.
template <typename T>
T require(const common::Expected<T>& expected) {
  if (!expected.ok()) {
    std::cerr << "error: " << expected.status().message() << "\n";
    std::exit(2);
  }
  return expected.value();
}

/// Exits 2 naming every flag on the command line that no getter has read,
/// or else every positional argument (a bench takes none).  Call after the
/// last flag read.
inline void reject_unknown_flags(const common::CliFlags& flags) {
  const common::Status unused = flags.check_unused();
  if (unused.ok()) return;
  std::cerr << "error: " << unused.message() << "\n";
  std::exit(2);
}

/// Parses the common flags over the defaults in `cfg`; the caller reads no
/// other flag.  Malformed values ("--seeds=lots", "--links=4,x") and
/// unknown flags abort the sweep with a one-line error instead of silently
/// running a different experiment.
inline HarnessConfig parse_common_flags(int argc, char** argv,
                                        HarnessConfig cfg = {}) {
  common::CliFlags flags;
  flags.parse(argc, argv);
  cfg.link_counts =
      require(flags.get_int_list_checked("links", cfg.link_counts));
  for (const std::int64_t links : cfg.link_counts) {
    if (links < 1 || links > 4096) {
      std::cerr << "error: --links: link counts must be in [1, 4096], got "
                << links << "\n";
      std::exit(2);
    }
  }
  cfg.channels = static_cast<int>(
      require(flags.get_int_checked("channels", cfg.channels, 1, 1024)));
  cfg.seeds = static_cast<int>(
      require(flags.get_int_checked("seeds", cfg.seeds, 1, 1'000'000)));
  cfg.demand_scale = require(
      flags.get_double_checked("demand-scale", cfg.demand_scale, 1e-18, 1e18));
  cfg.gamma_scale_given = flags.has("gamma-scale");
  cfg.gamma_scale = require(
      flags.get_double_checked("gamma-scale", cfg.gamma_scale, 1e-9, 1e9));
  cfg.threads = static_cast<int>(
      require(flags.get_int_checked("threads", cfg.threads, 0, 4096)));
  if (flags.has("csv")) cfg.csv_path = flags.get_string("csv", "");
  reject_unknown_flags(flags);
  return cfg;
}

/// Builds the paper's simulation instance: Table I network + per-link
/// single-GOP video demands.
inline Instance make_instance(int links, int channels, double demand_scale,
                              std::uint64_t seed, double gamma_scale = 1.0) {
  common::Rng rng(seed);
  net::NetworkParams params;
  params.num_links = links;
  params.num_channels = channels;
  for (double& g : params.sinr_thresholds) g *= gamma_scale;
  net::Network net = net::Network::table_i(params, rng);

  video::DemandConfig dcfg;
  dcfg.demand_scale = demand_scale;
  common::Rng demand_rng = rng.fork(0x5EED);
  auto demands = video::make_link_demands(links, dcfg, demand_rng);

  // Generated instances are validated the same way user-supplied ones are:
  // a sweep point that would feed NaN gains or absurd demands to every
  // algorithm under comparison aborts loudly instead of charting garbage.
  const check::InstanceReport report = check::validate_instance(net, demands);
  if (!report.ok()) {
    std::cerr << "error: generated instance (links=" << links
              << ", seed=" << seed << ") failed validation:\n"
              << report.to_string() << "\n";
    std::exit(2);
  }
  return {std::move(net), std::move(demands)};
}

/// Prints the Table I parameter block every bench runs under.
inline void print_config_banner(const HarnessConfig& cfg,
                                const std::string& what) {
  std::cout << "=== " << what << " ===\n";
  std::cout << "Table I: Pmax=1W rho=0.1W W=200MHz Gamma={0.1..0.5}x"
            << cfg.gamma_scale << " | K=" << cfg.channels
            << " | seeds=" << cfg.seeds
            << " (95% CI) | demand scale=" << cfg.demand_scale << "\n\n";
}

/// Per-algorithm metrics of one run.
struct RunMetrics {
  double total_slots = 0.0;
  double avg_delay = 0.0;
  double fairness = 1.0;
  bool served = false;
};

inline RunMetrics metrics_of(const net::Network& net,
                             const std::vector<video::LinkDemand>& demands,
                             const std::vector<sched::TimedSchedule>& timeline,
                             sched::ExecutionOrder order, bool served) {
  const auto exec = sched::execute_timeline(net, timeline, demands, order);
  RunMetrics m;
  m.total_slots = exec.total_slots;
  m.avg_delay = exec.average_delay();
  m.fairness = exec.delay_fairness();
  m.served = served && exec.all_demands_met;
  return m;
}

/// The three algorithms of the paper's figures.
struct ComparisonPoint {
  std::vector<double> cg, b1, b2;          // total slots
  std::vector<double> cg_d, b1_d, b2_d;    // average delay
  std::vector<double> cg_f, b1_f, b2_f;    // fairness
  /// Runs where the uncoordinated/heuristic scheme never cleared a demand
  /// (excluded from the aggregates above, reported alongside).
  int b1_failures = 0;
  int b2_failures = 0;
};

/// All three algorithms' metrics for one seed (one slot of the parallel
/// sweep; reduced into a ComparisonPoint in index order afterwards).
struct SeedOutcome {
  RunMetrics cg, b1, b2;
};

/// Solves one seed of the sweep.  Self-contained: builds its own instance
/// from the seed index, shares no mutable state — safe to call from
/// parallel_for workers.
inline SeedOutcome run_seed(int links, const HarnessConfig& cfg, int s) {
  const Instance inst = make_instance(
      links, cfg.channels, cfg.demand_scale,
      0xC0FFEE + 1000003ULL * static_cast<std::uint64_t>(s),
      cfg.gamma_scale);

  SeedOutcome out;
  const auto cg =
      core::solve_column_generation(inst.net, inst.demands, cfg.cg);
  out.cg = metrics_of(inst.net, inst.demands, cg.timeline,
                      sched::ExecutionOrder::CompletionAware, true);

  const auto b1 = baselines::benchmark1(inst.net, inst.demands);
  out.b1 = metrics_of(inst.net, inst.demands, b1.timeline,
                      sched::ExecutionOrder::AsGiven, b1.served_all);

  const auto b2 = baselines::benchmark2(inst.net, inst.demands);
  out.b2 = metrics_of(inst.net, inst.demands, b2.timeline,
                      sched::ExecutionOrder::AsGiven, b2.served_all);
  return out;
}

/// Runs all three algorithms over the seed batch at one sweep point.
/// Seeds are solved concurrently under cfg.threads (0 = auto, 1 = serial)
/// into index-addressed slots, then reduced here in index order — the
/// returned point is byte-identical for every thread count.
inline ComparisonPoint run_comparison(int links, const HarnessConfig& cfg) {
  std::vector<SeedOutcome> outcomes(static_cast<std::size_t>(cfg.seeds));
  common::parallel_for(outcomes.size(), common::resolve_threads(cfg.threads),
                       [&](std::size_t s) {
                         outcomes[s] =
                             run_seed(links, cfg, static_cast<int>(s));
                       });

  ComparisonPoint point;
  for (const SeedOutcome& out : outcomes) {
    point.cg.push_back(out.cg.total_slots);
    point.cg_d.push_back(out.cg.avg_delay);
    point.cg_f.push_back(out.cg.fairness);

    if (out.b1.served) {
      point.b1.push_back(out.b1.total_slots);
      point.b1_d.push_back(out.b1.avg_delay);
      point.b1_f.push_back(out.b1.fairness);
    } else {
      ++point.b1_failures;
    }

    if (out.b2.served) {
      point.b2.push_back(out.b2.total_slots);
      point.b2_d.push_back(out.b2.avg_delay);
      point.b2_f.push_back(out.b2.fairness);
    } else {
      ++point.b2_failures;
    }
  }
  return point;
}

inline void finish_table(common::Table& table,
                         const HarnessConfig& cfg) {
  table.print(std::cout);
  if (cfg.csv_path && !cfg.csv_path->empty()) {
    table.write_csv(*cfg.csv_path);
    std::cout << "\n(csv written to " << *cfg.csv_path << ")\n";
  }
}

}  // namespace mmwave::bench

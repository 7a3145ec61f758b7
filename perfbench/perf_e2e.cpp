// perf_e2e — seeded end-to-end benchmark with a per-layer split.
//
//   perf_e2e --workload=certify|bnb|stream|fleet --seed=N --seconds=S
//            --trace=0|1 --dir=SCRATCH_DIR
//
// Every input is generated from --seed; the library only ever sees the
// generated instances, sessions and request lines, through its public APIs:
//
//   certify  closed loop of cold certified solves (core::solve_column_
//            generation) on a bank of gamma=1 instances; the certification
//            MILP's root LP carries the time.
//   bnb      the same loop on hard gamma=3 instances with a fixed B&B node
//            budget per exact-pricing call instead of a wall-clock limit, so
//            node LPs carry the time and certified_ratio repeats exactly.
//   stream   closed loop over GOP periods of drain-risk blockage sessions
//            (stream::run_blockage_session + make_cg_scheduler + a
//            SolverContext), each period persisted through core::
//            CheckpointLog; every session is killed once and resumed.
//   fleet    open loop: the serving thread's line source paces solve/
//            resolve/stream requests into fleet::Server::run at a fixed
//            rate; latency counts from each request's due time.
//
// The instance, session and piconet banks are fixed; the seed draws the
// order they are run in, the kill points and the request sequence.  Closed
// loops run whole passes over their bank until --seconds have passed, each
// pass on the next CPU, and report each unit's best time over the passes;
// the open loop serves one schedule in several rounds and reports each
// request's best round.  Both keep bursts of load from outside the
// benchmark out of the figures.
//
// With --trace=0 the last stdout line carries the end-to-end metrics; with
// --trace=1 the benchmark-side timers around each layer call are on and the
// line carries the per-layer metrics instead.  Correctness checks run
// outside the timed window; any failure prints correct=false and exits 1.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "check/schedule_verifier.h"
#include "common/cli.h"
#include "common/log.h"
#include "common/rng.h"
#include "core/checkpoint.h"
#include "core/checkpoint_log.h"
#include "core/column_generation.h"
#include "fleet/server.h"
#include "mmwave/channel.h"
#include "mmwave/network.h"
#include "stream/blockage_session.h"
#include "stream/client_buffer.h"
#include "stream/session.h"
#include "video/demand.h"

#ifndef PERF_BUILD_TYPE
#define PERF_BUILD_TYPE "unknown"
#endif
#ifndef PERF_COMPILER
#define PERF_COMPILER "unknown"
#endif

namespace {

using namespace mmwave;
using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

double ms_since(Clock::time_point from) { return ms_between(from, Clock::now()); }

// ---------------------------------------------------------------------------
// Statistics and the result line.
// ---------------------------------------------------------------------------

/// Percentile (q in [0, 1]) of an unsorted sample, interpolating linearly
/// between the two nearest ranks so that two samples trading places moves
/// the figure only by their difference.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

double sum_of(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// A closed loop made of whole passes over `slots` units, reduced to each
/// slot's best time over the passes.  Speed on a shared host swings by a
/// third for seconds at a time with load from outside the benchmark; the
/// best of several passes is the cost of the unit itself.
std::vector<double> best_of_passes(const std::vector<double>& units_ms,
                                   std::size_t slots) {
  std::vector<double> best(units_ms.begin(),
                           units_ms.begin() + std::min(slots, units_ms.size()));
  for (std::size_t i = slots; i < units_ms.size(); ++i)
    best[i % slots] = std::min(best[i % slots], units_ms[i]);
  return best;
}

/// The tail: a fixed percentile per workload, the highest that leaves at
/// least ten samples beyond it in a baseline run.  It stays fixed so that a
/// faster run, which takes more samples, still reports the same statistic.
struct Tail {
  double pct = 50.0;
  double value = 0.0;
  std::size_t beyond = 0;
};

Tail tail_of(const std::vector<double>& v, double pct) {
  const auto beyond = static_cast<std::size_t>(
      std::floor(static_cast<double>(v.size()) * (1.0 - pct / 100.0)));
  return {pct, percentile(v, pct / 100.0), beyond};
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Outcome {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> errors;
  std::vector<Metric> e2e;
  std::vector<Metric> layer;

  /// The run's latency_ms_p50, which the traced run reports as
  /// trace.latency_ms_p50 so the two modes compare like for like.
  double p50() const {
    for (const Metric& m : e2e)
      if (m.name == "latency_ms_p50") return m.value;
    return 0.0;
  }

  void error(const std::string& what) {
    if (errors.size() < 20) std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
    errors.push_back(what);
  }
};

/// End-to-end metrics every workload reports: latencies in ms, throughput
/// in units per second.
void add_e2e(Outcome* out, double setup_s, double p50, const Tail& tail,
             double throughput, double certified_ratio, double rss_mb) {
  std::printf("latency: p50 %.3f ms, tail p%g %.3f ms (%zu samples beyond); "
              "%.3f units/s\n",
              p50, tail.pct, tail.value, tail.beyond, throughput);
  out->e2e = {
      {"setup_s", setup_s, "s"},
      {"throughput_per_s", throughput, "1/s"},
      {"latency_ms_p50", p50, "ms"},
      {"latency_ms_tail", tail.value, "ms"},
      {"certified_ratio", certified_ratio, "ratio"},
      {"peak_rss_mb", rss_mb, "MB"},
  };
}

/// Each slot's faster half of its passes (at least its best): samples for a
/// tail when the slots alone leave too few beyond it, without the slow
/// spells that the best of passes also leaves out.
std::vector<double> faster_half_of_passes(const std::vector<double>& units_ms,
                                          std::size_t slots) {
  std::vector<std::vector<double>> by_slot(slots);
  for (std::size_t i = 0; i < units_ms.size(); ++i)
    by_slot[i % slots].push_back(units_ms[i]);
  std::vector<double> out;
  for (std::vector<double>& v : by_slot) {
    std::sort(v.begin(), v.end());
    out.insert(out.end(), v.begin(),
               v.begin() + static_cast<std::ptrdiff_t>(
                               std::max<std::size_t>(1, v.size() / 2)));
  }
  return out;
}

/// End-to-end figures of a closed loop run in whole passes over `slots`
/// units: p50 and throughput from each slot's best time, and the tail from
/// the best times too when the slots leave ten beyond its percentile,
/// otherwise from each slot's faster half of passes.
void add_closed_loop_e2e(Outcome* out, double setup_s,
                         const std::vector<double>& units, std::size_t slots,
                         double tail_pct, double certified_ratio,
                         double rss_mb) {
  std::string passes;
  for (std::size_t p = 0; (p + 1) * slots <= units.size(); ++p) {
    double ms = 0.0;
    for (std::size_t k = 0; k < slots; ++k) ms += units[p * slots + k];
    char buf[32];
    std::snprintf(buf, sizeof buf, " %.3f", ms / 1e3);
    passes += buf;
  }
  std::printf("passes over %zu units (s):%s\n", slots, passes.c_str());
  const std::vector<double> best = best_of_passes(units, slots);
  const bool slot_tail =
      static_cast<double>(slots) * (1.0 - tail_pct / 100.0) >= 10.0;
  add_e2e(out, setup_s, median(best),
          tail_of(slot_tail ? best : faster_half_of_passes(units, slots),
                  tail_pct),
          ratio(1e3 * static_cast<double>(slots), sum_of(best)),
          certified_ratio, rss_mb);
}

/// Per-layer accumulator.  Every workload reports every name (zero where the
/// layer does no work or the program does not expose the counter there), so
/// one result shape serves all workloads.
struct Layers {
  // core::CgProfile summed over the solves the benchmark can see.
  double solve_ms = 0.0, master_ms = 0.0, greedy_ms = 0.0, milp_ms = 0.0;
  double master_pivots = 0.0, master_solves = 0.0, master_warm_hits = 0.0;
  double greedy_calls = 0.0, milp_calls = 0.0, iterations = 0.0;
  double ftran = 0.0, btran = 0.0, refactorizations = 0.0;
  double budget_stops = 0.0;
  double verify_ms = 0.0;
  // stream
  double stream_solve_ms = 0.0, checkpoint_ms = 0.0, checkpoint_bytes = 0.0;
  double resume_ms = 0.0, resume_deltas = 0.0, resumes = 0.0;
  double period_ms = 0.0;
  // Pool reuse over the ladder's sessions; the three counts are per period.
  double pool_loaded = 0.0, pool_reused = 0.0, pool_repaired = 0.0;
  double pool_dropped = 0.0, pool_evicted = 0.0;
  double stall_s = 0.0, layer_delivery_ratio = 0.0;
  // fleet
  double queue_wait_p50 = 0.0, queue_wait_p99 = 0.0;
  double exec_p50_solve = 0.0, exec_p50_resolve = 0.0, exec_p50_stream = 0.0;
  double latency_p50_solve = 0.0, latency_p50_resolve = 0.0;
  double latency_p50_stream = 0.0;
  double busy_ratio = 0.0, fleet_iterations = 0.0, seeded_columns = 0.0;
  double shed = 0.0, degraded = 0.0, late_p99 = 0.0;

  void add_profile(const core::CgResult& r, double wall_ms) {
    const core::CgProfile& p = r.profile;
    solve_ms += wall_ms;
    master_ms += 1e3 * p.master_seconds;
    greedy_ms += 1e3 * p.greedy_seconds;
    milp_ms += 1e3 * p.milp_seconds;
    master_pivots += static_cast<double>(p.master_pivots);
    master_solves += p.master_solves;
    master_warm_hits += p.master_warm_hits;
    greedy_calls += p.greedy_calls;
    milp_calls += p.milp_calls;
    iterations += r.iterations;
    ftran += static_cast<double>(p.lp_ftran_calls);
    btran += static_cast<double>(p.lp_btran_calls);
    refactorizations += p.lp_refactorizations;
  }

  /// Counts and times per unit (solve, period or request); ratios as is.
  std::vector<Metric> metrics(double units, double latency_p50) const {
    const double n = std::max(units, 1.0);
    return {
        {"pricing.milp_ms", milp_ms / n, "ms"},
        {"pricing.milp_calls", milp_calls / n, "count"},
        {"pricing.milp_ms_per_call", ratio(milp_ms, milp_calls), "ms"},
        {"pricing.milp_share", ratio(milp_ms, solve_ms), "ratio"},
        {"pricing.budget_stops", budget_stops, "count"},
        {"pricing.greedy_ms", greedy_ms / n, "ms"},
        {"pricing.greedy_calls", greedy_calls / n, "count"},
        {"cg.solve_ms", solve_ms / n, "ms"},
        {"cg.master_ms", master_ms / n, "ms"},
        {"cg.master_pivots", master_pivots / n, "count"},
        {"cg.master_warm_hit_ratio", ratio(master_warm_hits, master_solves),
         "ratio"},
        {"cg.iterations", iterations / n, "count"},
        {"cg.other_ms",
         std::max(0.0, solve_ms - master_ms - greedy_ms - milp_ms) / n, "ms"},
        {"lp.ftran_calls", ftran / n, "count"},
        {"lp.btran_calls", btran / n, "count"},
        {"lp.refactorizations", refactorizations / n, "count"},
        {"check.verify_ms", verify_ms / n, "ms"},
        {"stream.solve_ms", stream_solve_ms / n, "ms"},
        {"stream.checkpoint_ms", checkpoint_ms / n, "ms"},
        {"stream.checkpoint_bytes", checkpoint_bytes / n, "bytes"},
        {"stream.resume_ms", ratio(resume_ms, resumes), "ms"},
        {"stream.resume_deltas", ratio(resume_deltas, resumes), "count"},
        {"stream.other_ms",
         std::max(0.0, period_ms - stream_solve_ms - checkpoint_ms - resume_ms) /
             n,
         "ms"},
        {"pool.hit_ratio", ratio(pool_reused, pool_loaded), "ratio"},
        {"pool.columns_repaired", pool_repaired, "count"},
        {"pool.columns_dropped", pool_dropped, "count"},
        {"pool.evicted", pool_evicted, "count"},
        {"qoe.stall_s", stall_s, "s"},
        {"qoe.layer_delivery_ratio", layer_delivery_ratio, "ratio"},
        {"fleet.queue_wait_ms_p50", queue_wait_p50, "ms"},
        {"fleet.queue_wait_ms_p99", queue_wait_p99, "ms"},
        {"fleet.exec_ms_p50.solve", exec_p50_solve, "ms"},
        {"fleet.exec_ms_p50.resolve", exec_p50_resolve, "ms"},
        {"fleet.exec_ms_p50.stream", exec_p50_stream, "ms"},
        {"fleet.latency_ms_p50.solve", latency_p50_solve, "ms"},
        {"fleet.latency_ms_p50.resolve", latency_p50_resolve, "ms"},
        {"fleet.latency_ms_p50.stream", latency_p50_stream, "ms"},
        {"fleet.worker_busy_ratio", busy_ratio, "ratio"},
        {"fleet.cg_iterations", fleet_iterations / n, "count"},
        {"fleet.pool_seeded_columns", seeded_columns / n, "count"},
        {"fleet.shed", shed, "count"},
        {"fleet.degraded", degraded, "count"},
        {"fleet.generator_late_ms_p99", late_p99, "ms"},
        {"trace.latency_ms_p50", latency_p50, "ms"},
    };
  }
};

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string dir;
};

/// Moves the calling thread over the CPUs the process may run on, one CPU
/// per turn, and restores the full set when it goes out of scope.  On a
/// shared host each CPU runs at its own speed for seconds at a time; a
/// closed loop that visits every CPU gives each unit's best time a chance
/// on a CPU that is not slowed down at that moment.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&allowed_);
    if (sched_getaffinity(0, sizeof allowed_, &allowed_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &allowed_)) cpus_.push_back(c);
  }
  ~CpuRotation() {
    if (cpus_.size() > 1) sched_setaffinity(0, sizeof allowed_, &allowed_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  std::size_t size() const { return std::max<std::size_t>(1, cpus_.size()); }

  void pin(std::size_t turn) {
    if (cpus_.size() < 2) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[turn % cpus_.size()], &one);
    sched_setaffinity(0, sizeof one, &one);
  }

 private:
  cpu_set_t allowed_;
  std::vector<int> cpus_;
};

/// Set-up time, taken before the timed window.  The setup rebuilds the same
/// inputs, repeated in batches of at least kSetupBatchMs so that a batch is
/// not one clock read of a few microseconds.  A sample runs one batch on
/// each CPU and keeps the best time per setup, as the closed loops keep
/// each unit's best pass; the reported value is the median sample.
double timed_setup(const std::function<void()>& setup) {
  constexpr double kSetupBatchMs = 10.0;
  constexpr int kSamples = 5;
  setup();  // cold: page faults and first allocations
  auto t0 = Clock::now();
  setup();
  const double once_ms = std::max(ms_since(t0), 1e-3);
  const int reps =
      std::max(1, static_cast<int>(std::ceil(kSetupBatchMs / once_ms)));
  CpuRotation cpus;
  std::vector<double> samples_s;
  for (int i = 0; i < kSamples; ++i) {
    double best_s = 0.0;
    for (std::size_t c = 0; c < cpus.size(); ++c) {
      cpus.pin(c);
      t0 = Clock::now();
      for (int r = 0; r < reps; ++r) setup();
      const double s = ms_since(t0) / 1e3 / reps;
      best_s = c == 0 ? s : std::min(best_s, s);
    }
    samples_s.push_back(best_s);
  }
  return median(samples_s);
}

net::NetworkParams params_of(int links, int channels, int levels,
                             double gamma_scale) {
  net::NetworkParams params;
  params.num_links = links;
  params.num_channels = channels;
  params.sinr_thresholds.resize(levels);
  for (int q = 0; q < levels; ++q)
    params.sinr_thresholds[q] = 0.1 * (q + 1) * gamma_scale;
  return params;
}

// ---------------------------------------------------------------------------
// certify / bnb: closed loop of cold certified solves.
// ---------------------------------------------------------------------------

/// A gamma=3 instance (K=3, Q=4) of the bnb bank, by generator seed.
struct BankEntry {
  int links;
  std::uint64_t seed;
};

/// Instances screened from the generator.  The first eight need
/// branch-and-bound in exact pricing and exhaust the node budget below on
/// at least one call; the last four certify at the root.  A fixed bank
/// keeps the mix of B&B-heavy and easy solves identical across seeds (a
/// freshly drawn ladder is bimodal, and the share of hard draws swings a
/// run by more than any bound); the seed draws the order the bank is solved
/// in.
constexpr BankEntry kBnbBank[] = {
    {7, 7875207928476110273ULL},  {7, 9426184798635433501ULL},
    {7, 5027545723785356717ULL},  {7, 6784667070135418994ULL},
    {7, 29583799325025014ULL},    {8, 12466837048304179573ULL},
    {8, 16634882377972014896ULL}, {8, 4229468235398241942ULL},
    {7, 10459284169878989976ULL}, {7, 4818708376274094028ULL},
    {9, 1587434919152298254ULL},  {8, 15399329167894217648ULL},
};

/// A fixed instance bank, solved in whole passes in a seed-drawn order.
/// Solve times are heavy-tailed (one instance in twenty costs ten times the
/// median), so an instance set drawn afresh per seed moves the end-to-end
/// figures by 10-20% between seeds; a fixed bank leaves only the machine's
/// noise between runs.
struct SolveLadder {
  /// Generated bank: `instances` instances drawn from `bank_seed`, with
  /// link counts cycling through [links_min, links_max].  Ignored when
  /// `bank` lists the instances explicitly.
  int instances = 0;
  int links_min = 0, links_max = 0;
  std::uint64_t bank_seed = 0;
  const BankEntry* bank = nullptr;
  int bank_size = 0;
  int channels = 0, levels = 0;
  double gamma_scale = 1.0;
  /// 0 keeps the default node cap; > 0 replaces it for every exact-pricing
  /// call (the wall-clock limit is off either way).
  std::int64_t node_budget = 0;
  double tail_pct = 90.0;
};

// certify's tail is p66 of the 30 instances' best times (ten beyond it):
// over all samples, a run the host slowed down throughout read up to 50%
// higher at p90 than one it did not.
constexpr SolveLadder kCertify{/*instances=*/30, 10, 12, 0xCE271F1EDULL,
                               nullptr, 0, /*channels=*/5, /*levels=*/5, 1.0,
                               0, 66.0};
constexpr SolveLadder kBnb{0, 0, 0, 0, kBnbBank,
                           static_cast<int>(std::size(kBnbBank)),
                           /*channels=*/3, /*levels=*/4, 3.0,
                           /*node_budget=*/4, 75.0};

struct Instance {
  int links = 0;
  std::uint64_t seed = 0;
  std::unique_ptr<net::Network> net;
  std::vector<video::LinkDemand> demands;
};

Instance make_instance(const SolveLadder& ladder, int links,
                       std::uint64_t seed) {
  Instance inst;
  inst.links = links;
  inst.seed = seed;
  common::Rng rng(seed);
  inst.net = std::make_unique<net::Network>(net::Network::table_i(
      params_of(links, ladder.channels, ladder.levels, ladder.gamma_scale),
      rng));
  video::DemandConfig dcfg;
  dcfg.demand_scale = 1e-3;
  common::Rng drng = rng.fork(0x5EED);
  inst.demands = video::make_link_demands(links, dcfg, drng);
  return inst;
}

std::vector<Instance> make_ladder(const SolveLadder& ladder,
                                  std::uint64_t seed) {
  std::vector<BankEntry> bank(ladder.bank, ladder.bank + ladder.bank_size);
  if (ladder.bank == nullptr) {
    common::Rng gen(ladder.bank_seed);
    const int span = ladder.links_max - ladder.links_min + 1;
    for (int i = 0; i < ladder.instances; ++i)
      bank.push_back({ladder.links_min + i % span, gen()});
  }
  common::Rng order(seed);
  order.shuffle(bank);
  std::vector<Instance> out;
  for (const BankEntry& e : bank)
    out.push_back(make_instance(ladder, e.links, e.seed));
  return out;
}

core::CgOptions solve_options(const SolveLadder& ladder) {
  core::CgOptions opts;
  // No wall-clock limit on exact pricing: the work does not depend on the
  // speed of the machine.  The node cap bounds it instead.
  opts.exact.milp.time_limit_sec = 1e9;
  if (ladder.node_budget > 0) opts.exact.milp.max_nodes = ladder.node_budget;
  return opts;
}

bool same_answer(const core::CgResult& a, const core::CgResult& b) {
  return a.total_slots == b.total_slots && a.iterations == b.iterations &&
         a.converged == b.converged && a.timeline.size() == b.timeline.size();
}

/// No usable answer: nothing to execute although there was demand.
bool unusable(const core::CgResult& r) {
  return r.stop_reason == core::CgStopReason::kInvalidInput ||
         r.stop_reason == core::CgStopReason::kInternalError ||
         (r.timeline.empty() && r.total_slots > 0.0);
}

void check_solve(const Instance& inst, const core::CgResult& r, int index,
                 Outcome* out) {
  const std::string where = "instance " + std::to_string(index) +
                            " (L=" + std::to_string(inst.links) + ")";
  const check::ScheduleVerifier verifier(*inst.net);
  const check::VerifyReport report =
      verifier.verify_timeline(r.timeline, inst.demands, r.unserved_links);
  if (!report.ok()) out->error(where + ": verifier: " + report.to_string());
  const double lb = r.best_lower_bound();
  if (std::isfinite(lb) &&
      lb > r.total_slots + 1e-6 * (1.0 + std::abs(r.total_slots))) {
    out->error(where + ": Theorem-1 bound broken: LB " + std::to_string(lb) +
               " > total_slots " + std::to_string(r.total_slots));
  }
}

Outcome run_solve_workload(const SolveLadder& ladder, const RunArgs& args) {
  Outcome out;
  std::vector<Instance> instances;
  const double setup_s =
      timed_setup([&] { instances = make_ladder(ladder, args.seed); });
  const core::CgOptions opts = solve_options(ladder);

  // First answer per instance (the correctness reference) and every later
  // answer's agreement with it.
  std::vector<core::CgResult> first(instances.size());
  std::vector<bool> solved(instances.size(), false);
  Layers layers;
  std::vector<double> units;

  CpuRotation cpus;
  const auto window_start = Clock::now();
  const double window_ms = 1e3 * args.seconds;
  std::size_t next = 0;
  // Closed loop: the next solve starts when the previous one returns.  The
  // window ends at the first pass boundary after --seconds, so every run
  // samples each instance equally often.  Each pass runs on the next CPU.
  while (next % instances.size() != 0 || next == 0 ||
         ms_since(window_start) < window_ms) {
    const std::size_t i = next % instances.size();
    if (i == 0) cpus.pin(next / instances.size());
    const Instance& inst = instances[i];
    const auto t0 = Clock::now();
    core::CgResult r =
        core::solve_column_generation(*inst.net, inst.demands, opts);
    const double wall = ms_since(t0);
    units.push_back(wall);
    ++out.attempted;
    if (unusable(r)) ++out.failed;
    if (args.trace) layers.add_profile(r, wall);
    if (!solved[i]) {
      first[i] = std::move(r);
      solved[i] = true;
    } else if (!same_answer(first[i], r)) {
      out.error("instance " + std::to_string(i) +
                ": repeated solve gave a different answer");
    }
    ++next;
  }
  const double rss = peak_rss_mb();

  // ---- Correctness gate (outside the window) -----------------------------
  int certified = 0;
  for (std::size_t i = 0; i < instances.size(); ++i) {
    const core::CgResult& r = first[i];
    check_solve(instances[i], r, static_cast<int>(i), &out);
    if (r.converged && !r.degraded) ++certified;
    if (r.stop_reason == core::CgStopReason::kPricingFailure) {
      layers.budget_stops += 1.0;
    }
  }
  // At least one determinism witness even when the window held one pass.
  const core::CgResult again = core::solve_column_generation(
      *instances[0].net, instances[0].demands, opts);
  if (!same_answer(first[0], again))
    out.error("instance 0: re-solve after the window gave a different answer");

  std::string answers;
  for (const core::CgResult& r : first) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g/%d;", r.total_slots, r.iterations);
    answers += buf;
  }
  std::printf("outputs: %zu instances, %d certified, %.0f node-budget stops, "
              "objective digest %016" PRIx64 "\n",
              instances.size(), certified, layers.budget_stops,
              core::fnv1a64(answers));

  const double certified_ratio =
      static_cast<double>(certified) / static_cast<double>(instances.size());
  add_closed_loop_e2e(&out, setup_s, units, instances.size(), ladder.tail_pct,
                      certified_ratio, rss);
  out.layer = layers.metrics(static_cast<double>(units.size()), out.p50());
  return out;
}

// ---------------------------------------------------------------------------
// stream: GOP periods of blockage sessions, checkpointed and resumed.
// ---------------------------------------------------------------------------

/// A fixed bank of sessions, like the solve banks: the seed draws the order
/// and the GOP each session is killed at.
struct StreamShape {
  int sessions = 0;
  std::uint64_t bank_seed = 0;
  int links = 0, channels = 0, levels = 0;
  int gops = 0;
  double p_block = 0.0;
  double tail_pct = 99.0;
};

constexpr StreamShape kStream{/*sessions=*/6, 0x5E55101DULL, /*links=*/8, 5,
                              5, /*gops=*/24, /*p_block=*/0.4, 90.0};

struct SessionInput {
  std::uint64_t seed = 0;
  int kill_gop = 0;
  net::NetworkParams params;
  std::unique_ptr<net::TableIChannelModel> base;
  common::Rng session_rng;
  stream::BlockageSessionConfig config;
};

std::vector<SessionInput> make_sessions(const StreamShape& shape,
                                        std::uint64_t seed,
                                        const stream::DemandPolicy* policy) {
  common::Rng bank(shape.bank_seed);
  std::vector<std::uint64_t> seeds;
  for (int s = 0; s < shape.sessions; ++s) seeds.push_back(bank());
  common::Rng rng(seed);
  rng.shuffle(seeds);
  std::vector<SessionInput> out;
  out.reserve(shape.sessions);
  for (const std::uint64_t session_seed : seeds) {
    SessionInput in;
    in.seed = session_seed;
    // Kill after a period in [0, gops-2] so the resumed lifetime has work.
    in.kill_gop =
        static_cast<int>(rng.uniform_index(static_cast<std::uint64_t>(shape.gops - 1)));
    in.params = params_of(shape.links, shape.channels, shape.levels, 1.0);
    common::Rng srng(in.seed);
    in.base = std::make_unique<net::TableIChannelModel>(
        shape.links, shape.channels, in.params.noise_watts, srng);
    in.session_rng = srng.fork(1);
    in.config.session.num_gops = shape.gops;
    in.config.session.demand_scale = 1e-3;
    in.config.blockage.p_block = shape.p_block;
    in.config.blockage.attenuation = 0.05;
    in.config.demand_policy = policy;
    in.config.session_fingerprint = stream::blockage_session_fingerprint(
        in.config, shape.links, in.seed);
    out.push_back(std::move(in));
  }
  return out;
}

/// The answer of one session that must not depend on crashes or speed.
struct SessionAnswer {
  std::uint64_t digest = 0;
  double stall_seconds = 0.0;
  int rebuffer_events = 0;
  int layer_gops_offered = 0;
  int layer_gops_delivered = 0;
  double total_stall_slots = 0.0;
  double on_time_ratio = 0.0;
  double mean_psnr_db = 0.0;

  static SessionAnswer of(const stream::BlockageSessionMetrics& m) {
    return {m.plan_digest_chain, m.stall_seconds, m.rebuffer_events,
            m.layer_gops_offered, m.layer_gops_delivered,
            m.base.total_stall_slots, m.base.on_time_ratio,
            m.base.mean_psnr_db};
  }
  bool operator==(const SessionAnswer&) const = default;
};

/// Wraps the library scheduler: re-proves every schedule of each period's
/// plan with the ScheduleVerifier (time kept out of the period latency) and,
/// when tracing, times the scheduler call itself.
struct SchedulerProbe {
  bool trace = false;
  double solve_ms = 0.0;
  double verify_ms = 0.0;
  int plans = 0;
  int plans_verified = 0;
  Clock::time_point first_call{};
  bool called = false;

  stream::Scheduler wrap(stream::Scheduler inner) {
    return [this, inner = std::move(inner)](
               const net::Network& net,
               const std::vector<video::LinkDemand>& demands) {
      const auto t0 = Clock::now();
      if (!called) {
        first_call = t0;
        called = true;
      }
      stream::SchedulerResult r = inner(net, demands);
      const auto t1 = Clock::now();
      if (trace) solve_ms += ms_between(t0, t1);
      const check::ScheduleVerifier verifier(net);
      bool ok = r.ok;
      for (const auto& ts : r.timeline) {
        if (!verifier.verify(ts.schedule).ok()) ok = false;
      }
      ++plans;
      if (ok) ++plans_verified;
      verify_ms += ms_since(t1);
      return r;
    };
  }
};

struct LifetimeResult {
  stream::BlockageSessionMetrics metrics;
  bool resumed = false;
  int plans = 0;
  int plans_verified = 0;
};

/// One process lifetime of a session: binds the checkpoint log at `path`,
/// resumes from its cursor when present, and runs until `kill_gop`
/// (-1 = to the end), saving every completed period.  `units` receives one
/// latency sample per period: the wall clock since the previous period
/// boundary (the lifetime's start for its first period, so a resume's
/// open() and replay land in that period), verifier time excluded.  A
/// failed save is a failed check: the resume would start from an older
/// cursor and still match.
LifetimeResult run_lifetime(const SessionInput& in, const std::string& path,
                            int kill_gop, bool trace, Layers* layers,
                            std::vector<double>* units, Outcome* out) {
  LifetimeResult res;
  const auto start = Clock::now();
  stream::SolverContext context;
  stream::CgSchedulerOptions sched_opts;  // heuristic pricing (real time)
  sched_opts.capture_checkpoint = true;
  SchedulerProbe probe;
  probe.trace = trace;

  core::CheckpointLog log(path);
  const core::CheckpointLogLoad loaded = log.open();
  core::StreamCursor cursor;
  stream::BlockageRunControl control;
  if (loaded.loaded && loaded.state.has_session) {
    context.manager.import_checkpoint(loaded.state);
    cursor = loaded.state.session;
    control.resume = &cursor;
    res.resumed = true;
  }
  const auto opened = Clock::now();

  Clock::time_point boundary = start;
  double verify_at_boundary = 0.0;
  control.on_period = [&](const core::StreamCursor& cur, int gop) {
    const auto t0 = Clock::now();
    if (context.has_last_checkpoint) {
      core::CgCheckpoint ckpt =
          context.manager.export_checkpoint(context.last_checkpoint);
      ckpt.has_session = true;
      ckpt.session = cur;
      const common::Status st = log.save(ckpt);
      if (!st.ok()) {
        out->error(path + ": checkpoint save failed at gop " +
                   std::to_string(gop) + ": " + st.message());
      }
      if (trace) layers->iterations += context.last_checkpoint.iterations;
    }
    const auto t1 = Clock::now();
    if (trace) {
      layers->checkpoint_ms += ms_between(t0, t1);
      if (res.resumed && boundary == start) {
        // open() plus the replay up to the first resumed solve.
        layers->resume_ms += ms_between(start, opened) +
                             ms_between(opened, probe.first_call);
      }
    }
    units->push_back(ms_between(boundary, t1) -
                     (probe.verify_ms - verify_at_boundary));
    boundary = t1;
    verify_at_boundary = probe.verify_ms;
    return gop != kill_gop;
  };

  common::Rng session_rng = in.session_rng;
  res.metrics = stream::run_blockage_session(
      *in.base, in.params, in.config,
      probe.wrap(stream::make_cg_scheduler(sched_opts, &context)), session_rng,
      &context, &control);
  res.plans = probe.plans;
  res.plans_verified = probe.plans_verified;
  layers->verify_ms += probe.verify_ms;
  if (trace) {
    layers->stream_solve_ms += probe.solve_ms;
    layers->checkpoint_bytes += static_cast<double>(log.stats().delta_bytes +
                                                    log.stats().full_bytes);
    if (res.resumed) {
      layers->resumes += 1.0;
      layers->resume_deltas += loaded.deltas_applied;
    }
  }
  return res;
}

/// The uninterrupted run the killed-and-resumed session must reproduce.
SessionAnswer run_uninterrupted(const SessionInput& in) {
  stream::SolverContext context;
  stream::CgSchedulerOptions sched_opts;
  common::Rng session_rng = in.session_rng;
  return SessionAnswer::of(stream::run_blockage_session(
      *in.base, in.params, in.config,
      stream::make_cg_scheduler(sched_opts, &context), session_rng, &context));
}

Outcome run_stream_workload(const StreamShape& shape, const RunArgs& args) {
  Outcome out;
  const std::unique_ptr<stream::DemandPolicy> policy =
      stream::make_drain_risk_policy(stream::ClientBufferConfig{});
  std::vector<SessionInput> sessions;
  const double setup_s = timed_setup(
      [&] { sessions = make_sessions(shape, args.seed, policy.get()); });
  std::filesystem::create_directories(args.dir);

  Layers layers;
  std::vector<double> units;
  std::vector<stream::BlockageSessionMetrics> first(sessions.size());
  int plans = 0;
  int plans_verified = 0;

  CpuRotation cpus;
  const auto window_start = Clock::now();
  const double window_ms = 1e3 * args.seconds;
  std::size_t next = 0;
  // Closed loop over periods, whole sessions at a time; the window ends at
  // the first pass boundary after --seconds.  Each pass runs on the next CPU.
  while (next % sessions.size() != 0 || next == 0 ||
         ms_since(window_start) < window_ms) {
    const std::size_t i = next % sessions.size();
    if (i == 0) cpus.pin(next / sessions.size());
    const SessionInput& in = sessions[i];
    const std::string path =
        args.dir + "/session_" + std::to_string(i) + ".ckpt";
    std::filesystem::remove(path);
    std::filesystem::remove(path + ".delta");
    const std::size_t before = units.size();
    const LifetimeResult killed =
        run_lifetime(in, path, in.kill_gop, args.trace, &layers, &units, &out);
    const LifetimeResult resumed =
        run_lifetime(in, path, -1, args.trace, &layers, &units, &out);
    out.attempted += static_cast<std::int64_t>(units.size() - before);
    plans += killed.plans + resumed.plans;
    plans_verified += killed.plans_verified + resumed.plans_verified;
    out.failed += (killed.plans - killed.plans_verified) +
                  (resumed.plans - resumed.plans_verified);
    if (killed.metrics.completed || !resumed.resumed ||
        resumed.metrics.resume_rejected || !resumed.metrics.completed) {
      out.error("session " + std::to_string(i) +
                ": kill/resume did not take the checkpointed path");
    }
    if (next < sessions.size()) {
      first[i] = resumed.metrics;
    } else if (!(SessionAnswer::of(first[i]) ==
                 SessionAnswer::of(resumed.metrics))) {
      out.error("session " + std::to_string(i) +
                ": repeated run gave a different answer");
    }
    ++next;
  }
  const double rss = peak_rss_mb();
  std::filesystem::remove_all(args.dir);

  // ---- Correctness gate: resumed == uninterrupted, per session ------------
  double offered = 0.0, delivered = 0.0, stall = 0.0;
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    const stream::BlockageSessionMetrics& m = first[i];
    if (!(run_uninterrupted(sessions[i]) == SessionAnswer::of(m))) {
      out.error("session " + std::to_string(i) +
                ": resumed run differs from the uninterrupted run "
                "(plan digest chain or QoE block)");
    }
    offered += m.layer_gops_offered;
    delivered += m.layer_gops_delivered;
    stall += m.stall_seconds;
    layers.pool_loaded += m.pool_columns_loaded;
    layers.pool_reused += m.pool_columns_reused;
    layers.pool_repaired += m.pool_columns_repaired;
    layers.pool_dropped += m.pool_columns_dropped;
    layers.pool_evicted += static_cast<double>(m.pool_evicted);
  }
  const double ladder_periods =
      static_cast<double>(sessions.size()) * shape.gops;
  layers.pool_repaired /= ladder_periods;
  layers.pool_dropped /= ladder_periods;
  layers.pool_evicted /= ladder_periods;
  layers.stall_s = stall / static_cast<double>(sessions.size());
  layers.layer_delivery_ratio = ratio(delivered, offered);
  layers.period_ms = sum_of(units);
  std::printf("outputs: %zu sessions, mean stall %.6f s, layer delivery "
              "%.6f, plan digest of session 0 %016" PRIx64 "\n",
              sessions.size(), layers.stall_s, layers.layer_delivery_ratio,
              first[0].plan_digest_chain);

  add_closed_loop_e2e(
      &out, setup_s, units,
      sessions.size() * static_cast<std::size_t>(shape.gops), shape.tail_pct,
      ratio(plans_verified, plans), rss);
  out.layer = layers.metrics(static_cast<double>(units.size()), out.p50());
  return out;
}

// ---------------------------------------------------------------------------
// fleet: open loop into fleet::Server::run.
// ---------------------------------------------------------------------------

/// The piconets are a fixed bank, like the solve banks (a rare piconet whose
/// certification is a hundred times the median would otherwise come and go
/// with the seed); the seed draws the request sequence over them.
///
/// No measured traffic mix exists for the serving mode, so the operations
/// take turns: solve, resolve, stream, one third each.  Solve and resolve
/// come in equal numbers as in bench/perf_fleet, and the rotation is the
/// one tools/chaos_soak --fleet serves.  The per-operation latencies are
/// reported per layer, so any other weighting can be computed from them.
struct FleetShape {
  int piconets = 0;
  std::uint64_t bank_seed = 0;
  int links_min = 0, links_max = 0;
  int channels = 0, levels = 0;
  /// Offered load, requests per second, fixed spacing.
  double rate_per_s = 0.0;
  int stream_gops = 0;
  double p_block = 0.0;
  int workers = 0;
  /// Shared-pool column cap: an unbounded pool grows for the whole run and
  /// slows every later seed(), so the load would never settle.
  int pool_cap = 0;
  double tail_pct = 99.0;
  /// A run whose generator handed requests later than this (p99) fell
  /// behind its schedule and is invalid.
  double late_limit_ms = 0.0;
  /// A round's schedule is this many cycles; in each cycle every piconet
  /// gets one request of each operation.  The run serves as many rounds as
  /// fit in --seconds (at least one).
  int cycles = 0;
};

constexpr FleetShape kFleet{/*piconets=*/24, 0xF1EE7ULL, /*links=*/8, 12, 3, 3, /*rate=*/60.0,
                            /*stream_gops=*/4, 0.3, /*workers=*/2, /*pool_cap=*/256,
                            /*tail_pct=*/90.0, /*late_limit_ms=*/20.0,
                            /*cycles=*/2};

struct FleetRequestLine {
  std::string line;
  fleet::FleetOp op = fleet::FleetOp::kSolve;
  double due_ms = 0.0;
};

int requests_per_round(const FleetShape& shape) {
  return shape.cycles * 3 * shape.piconets;
}

/// One round's schedule.  Every seed offers the same work; the seed draws
/// its order (a fresh permutation of the piconets per operation and cycle)
/// and the blocked links.  Every round draws the same requests from `seed`;
/// only the ids, which carry the round, differ.
std::vector<FleetRequestLine> make_requests(const FleetShape& shape,
                                            std::uint64_t seed, int round) {
  common::Rng bank(shape.bank_seed);
  struct Piconet {
    int links;
    std::uint64_t seed;
  };
  std::vector<Piconet> piconets;
  for (int p = 0; p < shape.piconets; ++p) {
    piconets.push_back(
        {static_cast<int>(bank.uniform_int(shape.links_min, shape.links_max)),
         bank() >> 12});
  }
  common::Rng rng(seed);
  const int count = requests_per_round(shape);
  std::vector<FleetRequestLine> out;
  out.reserve(count);
  std::vector<std::vector<int>> order(3, std::vector<int>(shape.piconets));
  char buf[384];
  for (int i = 0; i < count; ++i) {
    const int k = i % (3 * shape.piconets);  // position in the cycle
    if (k == 0) {
      for (std::vector<int>& o : order) {
        for (int p = 0; p < shape.piconets; ++p) o[p] = p;
        rng.shuffle(o);
      }
    }
    const Piconet& pc = piconets[order[k % 3][k / 3]];
    FleetRequestLine req;
    req.due_ms = 1e3 * static_cast<double>(i) / shape.rate_per_s;
    if (i % 3 == 0) {
      req.op = fleet::FleetOp::kSolve;
      std::snprintf(buf, sizeof buf,
                    "{\"id\":\"r%02dq%05d\",\"op\":\"solve\",\"links\":%d,"
                    "\"channels\":%d,\"levels\":%d,\"seed\":%llu}",
                    round, i, pc.links, shape.channels, shape.levels,
                    static_cast<unsigned long long>(pc.seed));
    } else if (i % 3 == 1) {
      req.op = fleet::FleetOp::kResolve;
      std::snprintf(buf, sizeof buf,
                    "{\"id\":\"r%02dq%05d\",\"op\":\"resolve\",\"links\":%d,"
                    "\"channels\":%d,\"levels\":%d,\"seed\":%llu,"
                    "\"block_links\":[%d],\"block_atten\":0.1}",
                    round, i, pc.links, shape.channels, shape.levels,
                    static_cast<unsigned long long>(pc.seed),
                    static_cast<int>(rng.uniform_index(pc.links)));
    } else {
      req.op = fleet::FleetOp::kStream;
      std::snprintf(buf, sizeof buf,
                    "{\"id\":\"r%02dq%05d\",\"op\":\"stream\",\"links\":%d,"
                    "\"channels\":%d,\"levels\":%d,\"seed\":%llu,"
                    "\"gops\":%d,\"p_block\":%.2f,\"pricing\":\"heuristic\"}",
                    round, i, pc.links, shape.channels, shape.levels,
                    static_cast<unsigned long long>(pc.seed),
                    shape.stream_gops, shape.p_block);
    }
    req.line = buf;
    out.push_back(std::move(req));
  }
  return out;
}

bool answered(const fleet::RequestRecord& r) {
  return r.outcome == fleet::RequestOutcome::kOk ||
         r.outcome == fleet::RequestOutcome::kDegraded;
}

/// Records minus the id, the timing fields and the pool-dependent iteration
/// count.
bool same_record(const fleet::RequestRecord& a, const fleet::RequestRecord& b) {
  return a.op == b.op && a.outcome == b.outcome && a.code == b.code &&
         a.message == b.message && a.converged == b.converged &&
         std::fabs(a.total_slots - b.total_slots) <=
             1e-7 * std::max(1.0, std::fabs(a.total_slots));
}

Outcome run_fleet_workload(const FleetShape& shape, const RunArgs& args) {
  Outcome out;
  const int per_round = requests_per_round(shape);
  const auto n = static_cast<std::size_t>(per_round);
  const int num_rounds = std::max(
      1, static_cast<int>(shape.rate_per_s * args.seconds / per_round));
  fleet::ServerOptions opts;
  opts.workers = shape.workers;
  opts.max_queue = per_round + 8;  // admission never sheds at the offered rate
  opts.share_pool = true;
  opts.pool.cap = shape.pool_cap;
  std::vector<std::vector<FleetRequestLine>> rounds;
  const double setup_s = timed_setup([&] {
    rounds.clear();
    for (int r = 0; r < num_rounds; ++r)
      rounds.push_back(make_requests(shape, args.seed, r));
    const fleet::Server unused(opts);
  });
  fleet::Server server(opts);

  // The schedule is served in back-to-back rounds on the same server (the
  // shared pool carries over), each round's due times counted from its own
  // start, and each request's latency is its best over the rounds, as the
  // closed loops keep each unit's best pass: speed on a shared host swings
  // for seconds at a time with load from outside the benchmark, and an open
  // loop turns a slow spell into queueing.
  std::vector<std::vector<fleet::RequestRecord>> records(
      num_rounds, std::vector<fleet::RequestRecord>(n));
  std::vector<double> late;
  std::vector<double> best(n, HUGE_VAL);
  double window_s = 0.0;
  fleet::ServerReport report;
  for (int round = 0; round < num_rounds; ++round) {
    const std::vector<FleetRequestLine>& requests = rounds[round];
    std::vector<double> round_late(n, 0.0);
    std::size_t next = 0;
    const auto t0 = Clock::now();
    // The serving thread pulls each line when it is due: one open-loop
    // generator that never waits for answers.
    const fleet::LineSource source = [&](std::string* line) {
      if (next >= n) return false;
      const double due_ms = requests[next].due_ms;
      std::this_thread::sleep_until(
          t0 + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double, std::milli>(due_ms)));
      round_late[next] = ms_since(t0) - due_ms;
      *line = requests[next].line;
      ++next;
      return true;
    };
    const fleet::RecordSink sink = [&](const fleet::RequestRecord& rec) {
      if (rec.index >= 0 && static_cast<std::size_t>(rec.index) < n)
        records[round][rec.index] = rec;
    };
    const fleet::ServerReport r = server.run(source, sink);
    window_s += ms_since(t0) / 1e3;
    report.shed += r.shed;
    report.degraded += r.degraded;
    for (std::size_t i = 0; i < n; ++i) {
      const fleet::RequestRecord& rec = records[round][i];
      if (answered(rec)) {
        best[i] = std::min(best[i], round_late[i] + 1e3 * (rec.wait_seconds +
                                                           rec.exec_seconds));
      }
    }
    late.insert(late.end(), round_late.begin(), round_late.end());
  }
  const double rss = peak_rss_mb();
  const core::PoolManagerMetrics pool = server.shared_pool().metrics();

  std::vector<double> waits, latency;
  std::map<fleet::FleetOp, std::vector<double>> exec_by_op, latency_by_op;
  double exec_sum = 0.0;
  std::int64_t answered_count = 0;
  int certifiable = 0, certified = 0;
  Layers layers;
  for (const std::vector<fleet::RequestRecord>& round_records : records) {
    for (const fleet::RequestRecord& r : round_records) {
      ++out.attempted;
      if (!answered(r)) {
        ++out.failed;
        continue;
      }
      ++answered_count;
      waits.push_back(1e3 * r.wait_seconds);
      exec_by_op[r.op].push_back(1e3 * r.exec_seconds);
      exec_sum += r.exec_seconds;
      if (r.op != fleet::FleetOp::kStream) {
        ++certifiable;
        if (r.outcome == fleet::RequestOutcome::kOk && r.converged) ++certified;
        layers.fleet_iterations += r.iterations;
      }
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (best[i] == HUGE_VAL) continue;  // never answered: counted in failed
    latency.push_back(best[i]);
    latency_by_op[rounds[0][i].op].push_back(best[i]);
  }
  layers.queue_wait_p50 = median(waits);
  layers.queue_wait_p99 = percentile(waits, 0.99);
  layers.exec_p50_solve = median(exec_by_op[fleet::FleetOp::kSolve]);
  layers.exec_p50_resolve = median(exec_by_op[fleet::FleetOp::kResolve]);
  layers.exec_p50_stream = median(exec_by_op[fleet::FleetOp::kStream]);
  layers.latency_p50_solve = median(latency_by_op[fleet::FleetOp::kSolve]);
  layers.latency_p50_resolve = median(latency_by_op[fleet::FleetOp::kResolve]);
  layers.latency_p50_stream = median(latency_by_op[fleet::FleetOp::kStream]);
  layers.busy_ratio = exec_sum / (shape.workers * window_s);
  layers.seeded_columns = static_cast<double>(pool.seeded_columns);
  layers.shed = static_cast<double>(report.shed);
  layers.degraded = static_cast<double>(report.degraded);
  layers.late_p99 = percentile(late, 0.99);
  std::printf("generator: %d rounds of %zu requests at %.1f/s, lateness p99 "
              "%.3f ms; workers %.0f%% busy\n",
              num_rounds, n, shape.rate_per_s, layers.late_p99,
              100.0 * layers.busy_ratio);
  if (layers.late_p99 > shape.late_limit_ms) {
    out.error("generator fell behind its schedule (lateness p99 " +
              std::to_string(layers.late_p99) + " ms): run invalid");
  }

  // ---- Correctness gate: the schedule served again, cold and unpaced, must
  // give every round's records minus timing ------------------------------
  fleet::ServerOptions ref_opts = opts;
  ref_opts.share_pool = false;
  fleet::Server reference(ref_opts);
  std::vector<std::string> lines;
  for (const FleetRequestLine& req : rounds[0]) lines.push_back(req.line);
  std::vector<fleet::RequestRecord> ref_records(n);
  (void)reference.run(lines, [&](const fleet::RequestRecord& rec) {
    if (rec.index >= 0 && static_cast<std::size_t>(rec.index) < n)
      ref_records[rec.index] = rec;
  });
  std::string answers;
  for (std::size_t i = 0; i < n; ++i) {
    for (int round = 0; round < num_rounds; ++round) {
      const fleet::RequestRecord& rec = records[round][i];
      if (!same_record(rec, ref_records[i])) {
        out.error("round " + std::to_string(round) + " request " +
                  std::to_string(i) +
                  ": record differs from the cold reference run: " +
                  rec.to_json_line() + " vs " + ref_records[i].to_json_line());
      }
    }
    answers += ref_records[i].id + ref_records[i].message +
               std::to_string(ref_records[i].converged) + ";";
  }
  std::printf("outputs: %zu records per round, %d/%d solve/resolve "
              "certified, digest %016" PRIx64 "\n",
              n, certified, certifiable, core::fnv1a64(answers));

  add_e2e(&out, setup_s, median(latency), tail_of(latency, shape.tail_pct),
          ratio(static_cast<double>(answered_count), window_s),
          ratio(certified, certifiable), rss);
  out.layer = layers.metrics(static_cast<double>(answered_count), out.p50());
  return out;
}

// ---------------------------------------------------------------------------
// Stamp and result line.
// ---------------------------------------------------------------------------

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string model = line.substr(colon + 1);
        model.erase(0, model.find_first_not_of(' '));
        return model;
      }
    }
  }
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

void print_result(const Outcome& out, bool trace) {
  const bool correct = out.errors.empty();
  std::string line = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(out.attempted) +
                     ", \"failed\": " + std::to_string(out.failed) +
                     ", \"metrics\": {";
  const std::vector<Metric>& metrics = trace ? out.layer : out.e2e;
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char buf[160];
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                  metrics[i].unit.c_str());
    line += buf;
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  common::CliFlags flags;
  if (!flags.parse(argc, argv)) {
    std::fprintf(stderr, "error: %s\n", flags.error().c_str());
    return 2;
  }
  RunArgs args;
  args.workload = flags.get_string("workload", "");
  const auto seed = flags.get_int_checked("seed", 1, 0);
  const auto seconds = flags.get_double_checked("seconds", 10.0, 0.01, 3600.0);
  const auto trace = flags.get_int_checked("trace", 0, 0, 1);
  args.dir = flags.get_string("dir", "");
  if (!seed.ok() || !seconds.ok() || !trace.ok() || args.dir.empty()) {
    std::fprintf(stderr,
                 "usage: perf_e2e --workload=certify|bnb|stream|fleet "
                 "--seed=N --seconds=S --trace=0|1 --dir=SCRATCH_DIR\n");
    return 2;
  }
  args.seed = static_cast<std::uint64_t>(seed.value());
  args.seconds = seconds.value();
  args.trace = trace.value() == 1;

  // Refuse to report numbers from an assert-enabled or unoptimized build.
  bool release = std::string(PERF_BUILD_TYPE) == "Release";
#ifndef NDEBUG
  release = false;
#endif
  if (!release) {
    std::fprintf(stderr,
                 "error: perf_e2e was built as '%s' with assertions %s; "
                 "only a Release build reports\n",
                 PERF_BUILD_TYPE,
#ifdef NDEBUG
                 "off"
#else
                 "on"
#endif
    );
    return 2;
  }
  common::set_log_level(common::LogLevel::Error);
  std::printf("stamp: {\"build_type\": \"%s\", \"compiler\": \"%s\", "
              "\"nproc\": %u, \"cpu\": \"%s\", \"workload\": \"%s\", "
              "\"seed\": %llu, \"seconds\": %g, \"trace\": %d}\n",
              PERF_BUILD_TYPE, json_escape(PERF_COMPILER).c_str(),
              std::thread::hardware_concurrency(),
              json_escape(cpu_model()).c_str(), args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);

  Outcome out;
  if (args.workload == "certify") {
    out = run_solve_workload(kCertify, args);
  } else if (args.workload == "bnb") {
    out = run_solve_workload(kBnb, args);
  } else if (args.workload == "stream") {
    out = run_stream_workload(kStream, args);
  } else if (args.workload == "fleet") {
    out = run_fleet_workload(kFleet, args);
  } else {
    std::fprintf(stderr, "error: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  std::fflush(stderr);
  print_result(out, args.trace);
  return out.errors.empty() ? 0 : 1;
}

// chaos_soak — seeded crash-recovery soak driver for streaming sessions.
//
// Property under test: for every seed, a blockage streaming session that is
// killed at randomized-but-deterministic GOP boundaries and resumed from its
// checkpoint file produces EXACTLY the uninterrupted run's results — every
// per-GOP record equal to 1e-7 and the plan digest chain bit-identical —
// including legs where the registered fault sites fail a save
// (checkpoint.write_fail), tear a save before its rename
// (checkpoint.torn_write) and corrupt the saved cursor
// (session.cursor_corrupt).  Client-buffer QoE state (stall seconds,
// rebuffer events, layer-delivery counts) rides the same cursor and must
// replay exactly too; the demand policy rotates by seed parity so both the
// blind baseline and the drain-risk shaper soak through crashes.  Injected
// damage may cost re-solved periods (previous save -> cold start); it must
// never cost correctness and never crash.
//
//   chaos_soak [--seeds=N] [--seed-base=S] [--gops=G] [--links --channels
//              --levels] [--p-block=p] [--dir=D] [--out=BENCH_soak.json]
//   chaos_soak --fleet [--seeds=N] [--seed-base=S] [--requests=R] [--dir=D]
//              [--out=FILE]
//
// --fleet switches to the fleet-serve soak: for every seed, a fleet::Server
// run over a deterministic solve/resolve/stream request list is stopped
// after a randomized-but-deterministic number of emitted records (a SIGTERM
// drain), then restarted with the same state path against the same list.
// The two segments together must reproduce the uninterrupted run exactly —
// same record-id set, no request served twice, per-id outcome/code/optimum
// equal to 1e-7 and stream digest messages bit-identical — including legs
// that fault the drain manifest write (fleet.drain_crash), a stream
// request's session-log save (checkpoint.write_fail) and a request payload
// (fleet.request_poison).  Answer-changing faults (poison) are armed
// identically on the reference run so it stays comparable; persistence
// faults must be absorbed by retry/degradation without touching records.
//
// Exit status: 0 when every seed's soak matched, 1 otherwise, and 2 for a
// malformed or out-of-range flag value or a flag the chosen soak does not
// accept.  The JSON report also records the saves and bytes written per
// seed.
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/cli.h"
#include "common/fault_injection.h"
#include "common/rng.h"
#include "core/checkpoint.h"
#include "core/checkpoint_log.h"
#include "fleet/server.h"
#include "mmwave/channel.h"
#include "mmwave/network.h"
#include "stream/blockage_session.h"
#include "stream/session.h"

namespace {

using namespace mmwave;

struct SoakSetup {
  int links = 4;
  int channels = 2;
  int levels = 3;
  int gops = 10;
  double p_block = 0.3;
  double demand_scale = 1e-3;
};

net::NetworkParams params_of(const SoakSetup& s) {
  net::NetworkParams params;
  params.num_links = s.links;
  params.num_channels = s.channels;
  params.sinr_thresholds.resize(s.levels);
  for (int q = 0; q < s.levels; ++q)
    params.sinr_thresholds[q] = 0.1 * (q + 1);
  return params;
}

/// Demand policy under soak rotates by seed parity so both the blind
/// baseline and the drain-risk shaper get crash/resume coverage.  The
/// policy object must outlive the session config that points at it.
const stream::DemandPolicy* soak_policy(std::uint64_t seed) {
  static const std::unique_ptr<stream::DemandPolicy> blind =
      stream::make_blind_policy();
  static const std::unique_ptr<stream::DemandPolicy> drain =
      stream::make_drain_risk_policy(stream::ClientBufferConfig{});
  return (seed % 2 == 0) ? drain.get() : blind.get();
}

stream::BlockageSessionConfig config_of(const SoakSetup& s,
                                        std::uint64_t seed) {
  stream::BlockageSessionConfig cfg;
  cfg.session.num_gops = s.gops;
  cfg.session.demand_scale = s.demand_scale;
  cfg.blockage.p_block = s.p_block;
  cfg.blockage.attenuation = 0.05;
  cfg.demand_policy = soak_policy(seed);
  cfg.session_fingerprint =
      stream::blockage_session_fingerprint(cfg, s.links, seed);
  return cfg;
}

/// One process lifetime: builds the session world deterministically from
/// `seed`, opens the checkpoint log at `path`, resumes from its cursor when
/// one is present, and runs until `kill_gop` (on_period refuses to continue
/// there, simulating a crash at that GOP boundary; -1 = run to completion).
/// Every completed period is persisted through the log.  Every period
/// solves cold, so a lifetime whose cursor is missing, degraded or rejected
/// runs the session from period 0 exactly as the uninterrupted run does.
stream::BlockageSessionMetrics run_lifetime(const SoakSetup& s,
                                            std::uint64_t seed,
                                            const std::string& path,
                                            int kill_gop,
                                            core::CheckpointLogStats* stats) {
  common::Rng rng(seed);
  net::NetworkParams params = params_of(s);
  net::TableIChannelModel base(s.links, s.channels, params.noise_watts, rng);
  const stream::BlockageSessionConfig cfg = config_of(s, seed);

  stream::SolverContext context;
  stream::CgSchedulerOptions sched_opts;
  sched_opts.heuristic_only = true;
  sched_opts.capture_checkpoint = true;

  core::CheckpointLog log(path);
  const core::CheckpointLogLoad loaded = log.open();
  core::StreamCursor cursor;
  stream::BlockageRunControl control;
  if (loaded.loaded && loaded.state.has_session) {
    cursor = loaded.state.session;
    control.resume = &cursor;
  }
  control.on_period = [&](const core::StreamCursor& cur, int gop) {
    if (context.has_last_checkpoint) {
      core::CgCheckpoint ckpt = context.last_checkpoint;
      ckpt.has_session = true;
      ckpt.session = cur;
      // Save failures (failed or torn writes) are the scenario, not an
      // error: the file keeps the previous save, the next save rewrites it,
      // and the next restart recovers from the last good state.
      (void)log.save(ckpt).ok();  // lint: discard
    }
    return gop != kill_gop;
  };

  common::Rng session_rng = rng.fork(1);
  const auto metrics = stream::run_blockage_session(
      base, params, cfg, stream::make_cg_scheduler(sched_opts, &context),
      session_rng, &context, &control);
  if (stats != nullptr) {
    stats->saves += log.stats().saves;
    stats->full_bytes += log.stats().full_bytes;
  }
  return metrics;
}

/// The uninterrupted run every chaos variant must reproduce.
stream::BlockageSessionMetrics run_reference(const SoakSetup& s,
                                             std::uint64_t seed) {
  common::Rng rng(seed);
  net::NetworkParams params = params_of(s);
  net::TableIChannelModel base(s.links, s.channels, params.noise_watts, rng);
  const stream::BlockageSessionConfig cfg = config_of(s, seed);
  stream::SolverContext context;
  stream::CgSchedulerOptions sched_opts;
  sched_opts.heuristic_only = true;
  common::Rng session_rng = rng.fork(1);
  return stream::run_blockage_session(
      base, params, cfg, stream::make_cg_scheduler(sched_opts, &context),
      session_rng, &context);
}

bool close_to(double a, double b) {
  if (std::isnan(a) && std::isnan(b)) return true;
  return std::fabs(a - b) <= 1e-7 * std::max(1.0, std::max(std::fabs(a),
                                                           std::fabs(b)));
}

int compare_runs(const stream::BlockageSessionMetrics& ref,
                 const stream::BlockageSessionMetrics& got,
                 std::uint64_t seed) {
  int mismatches = 0;
  auto fail = [&](const char* what, double want, double have) {
    std::fprintf(stderr,
                 "MISMATCH seed=%llu %s: reference %.17g, resumed %.17g\n",
                 static_cast<unsigned long long>(seed), what, want, have);
    ++mismatches;
  };
  if (ref.plan_digest_chain != got.plan_digest_chain) {
    std::fprintf(stderr,
                 "MISMATCH seed=%llu plan_digest_chain: reference "
                 "0x%016" PRIx64 ", resumed 0x%016" PRIx64 "\n",
                 static_cast<unsigned long long>(seed), ref.plan_digest_chain,
                 got.plan_digest_chain);
    ++mismatches;
  }
  if (ref.base.gops.size() != got.base.gops.size()) {
    fail("gop count", static_cast<double>(ref.base.gops.size()),
         static_cast<double>(got.base.gops.size()));
    return mismatches;
  }
  for (std::size_t g = 0; g < ref.base.gops.size(); ++g) {
    const stream::GopRecord& a = ref.base.gops[g];
    const stream::GopRecord& b = got.base.gops[g];
    if (!close_to(a.demand_bits, b.demand_bits))
      fail("gop demand_bits", a.demand_bits, b.demand_bits);
    if (!close_to(a.schedule_slots, b.schedule_slots))
      fail("gop schedule_slots", a.schedule_slots, b.schedule_slots);
    if (!close_to(a.stall_slots, b.stall_slots))
      fail("gop stall_slots", a.stall_slots, b.stall_slots);
    if (a.on_time != b.on_time)
      fail("gop on_time", a.on_time ? 1.0 : 0.0, b.on_time ? 1.0 : 0.0);
  }
  if (!close_to(ref.base.on_time_ratio, got.base.on_time_ratio))
    fail("on_time_ratio", ref.base.on_time_ratio, got.base.on_time_ratio);
  if (!close_to(ref.base.total_stall_slots, got.base.total_stall_slots))
    fail("total_stall_slots", ref.base.total_stall_slots,
         got.base.total_stall_slots);
  if (!close_to(ref.base.mean_psnr_db, got.base.mean_psnr_db))
    fail("mean_psnr_db", ref.base.mean_psnr_db, got.base.mean_psnr_db);
  if (!close_to(ref.mean_blocked_fraction, got.mean_blocked_fraction))
    fail("mean_blocked_fraction", ref.mean_blocked_fraction,
         got.mean_blocked_fraction);
  // Client-buffer QoE state rides the checkpoint cursor: a resumed session
  // must replay playback stall, rebuffer counts and the layer-delivery
  // ratio exactly, not just the scheduling records.
  if (!close_to(ref.stall_seconds, got.stall_seconds))
    fail("stall_seconds", ref.stall_seconds, got.stall_seconds);
  if (ref.rebuffer_events != got.rebuffer_events)
    fail("rebuffer_events", static_cast<double>(ref.rebuffer_events),
         static_cast<double>(got.rebuffer_events));
  if (ref.layer_gops_offered != got.layer_gops_offered)
    fail("layer_gops_offered", static_cast<double>(ref.layer_gops_offered),
         static_cast<double>(got.layer_gops_offered));
  if (ref.layer_gops_delivered != got.layer_gops_delivered)
    fail("layer_gops_delivered",
         static_cast<double>(ref.layer_gops_delivered),
         static_cast<double>(got.layer_gops_delivered));
  if (!close_to(ref.layer_delivery_ratio, got.layer_delivery_ratio))
    fail("layer_delivery_ratio", ref.layer_delivery_ratio,
         got.layer_delivery_ratio);
  return mismatches;
}

struct SeedOutcome {
  std::uint64_t seed = 0;
  int lifetimes = 0;
  int fault_legs = 0;
  int mismatches = 0;
  core::CheckpointLogStats stats;
};

/// Runs the chaos variant for one seed: a deterministic kill schedule, each
/// lifetime under a cycling fault leg, final lifetime running to completion.
SeedOutcome soak_seed(const SoakSetup& s, std::uint64_t seed,
                      const std::string& dir) {
  SeedOutcome out;
  out.seed = seed;
  const std::string path =
      dir + "/soak_" + std::to_string(seed) + ".ckpt";
  std::remove(path.c_str());

  const auto reference = run_reference(s, seed);

  // Deterministic kill schedule: 1..3 kills at boundaries before the last
  // period, strictly increasing so every lifetime makes progress.
  common::Rng kr(seed ^ 0xC4A05011ULL);
  const int num_kills =
      1 + static_cast<int>(kr.uniform_index(std::min(3, s.gops - 1)));
  std::vector<int> kills;
  int lo = 0;
  for (int i = 0; i < num_kills && lo < s.gops - 1; ++i) {
    const int k = lo + static_cast<int>(kr.uniform_index(
                           static_cast<std::uint64_t>(s.gops - 1 - lo)));
    kills.push_back(k);
    lo = k + 1;
  }
  kills.push_back(-1);  // final lifetime: run to completion

  stream::BlockageSessionMetrics last;
  for (std::size_t i = 0; i < kills.size(); ++i) {
    // Cycle the fault legs so every site gets exercised across the soak:
    // 0 none, 1 failed save, 2 save torn before its rename, 3 corrupted
    // cursor (forces a cold-start session that must still match).
    common::FaultInjector injector(seed ^ (0xFA017ULL + i));
    const int leg = static_cast<int>(i % 4);
    if (leg == 1) {
      injector.arm(common::faults::kCheckpointWriteFail,
                   {.skip = static_cast<int>(i % 2), .times = 1});
      ++out.fault_legs;
    } else if (leg == 2) {
      injector.arm(common::faults::kCheckpointTornWrite, {.times = 1});
      ++out.fault_legs;
    } else if (leg == 3) {
      injector.arm(common::faults::kSessionCursorCorrupt, {.times = 1});
      ++out.fault_legs;
    }
    common::FaultScope scope(injector);
    last = run_lifetime(s, seed, path, kills[i], &out.stats);
    ++out.lifetimes;
  }
  if (!last.completed) {
    std::fprintf(stderr, "MISMATCH seed=%llu: final lifetime incomplete\n",
                 static_cast<unsigned long long>(seed));
    ++out.mismatches;
  }
  out.mismatches += compare_runs(reference, last, seed);
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
  return out;
}

// ---------------------------------------------------------------------------
// --fleet: drain/restart soak for the multi-piconet serve mode.

/// Deterministic request list for one fleet seed: a solve/resolve/stream
/// mix over small instances, no deadlines (deadline nondeterminism would
/// break the equality property, which is about drain/restart, not timing).
std::vector<std::string> fleet_request_lines(std::uint64_t seed, int n) {
  std::vector<std::string> lines;
  char buf[320];
  for (int i = 0; i < n; ++i) {
    const unsigned long long rs = static_cast<unsigned long long>(
        seed * 100 + static_cast<std::uint64_t>(i) + 1);
    if (i % 3 == 0) {
      std::snprintf(buf, sizeof buf,
                    "{\"id\":\"s%02d\",\"op\":\"solve\",\"links\":5,"
                    "\"channels\":2,\"levels\":3,\"seed\":%llu}",
                    i, rs);
    } else if (i % 3 == 1) {
      std::snprintf(buf, sizeof buf,
                    "{\"id\":\"r%02d\",\"op\":\"resolve\",\"links\":5,"
                    "\"channels\":2,\"levels\":3,\"seed\":%llu,"
                    "\"block_links\":[1],\"block_atten\":0.1}",
                    i, rs);
    } else {
      std::snprintf(buf, sizeof buf,
                    "{\"id\":\"t%02d\",\"op\":\"stream\",\"links\":4,"
                    "\"channels\":2,\"levels\":3,\"seed\":%llu,\"gops\":3,"
                    "\"p_block\":0.3,\"pricing\":\"heuristic\"}",
                    i, rs);
    }
    lines.emplace_back(buf);
  }
  return lines;
}

/// Removes every durable artifact a serve run at `path` can leave behind:
/// the queue manifest and each stream request's session log.
void fleet_cleanup(const std::string& path,
                   const std::vector<std::string>& lines) {
  std::remove((path + ".queue").c_str());
  for (const std::string& line : lines) {
    const auto parsed = fleet::parse_request_line(line);
    if (!parsed.ok()) continue;
    std::remove((path + ".req_" + parsed.value().id).c_str());
  }
}

/// One serve-process lifetime.  `stop_after_records` >= 0 drains the server
/// once that many records have been emitted (-1 runs to completion).
/// Records land in `records` keyed by id; an id seen twice bumps
/// `duplicates` — the no-double-execution clause of the drain contract.
fleet::ServerReport run_fleet_segment(
    const std::vector<std::string>& lines, const std::string& state_path,
    int stop_after_records,
    std::map<std::string, fleet::RequestRecord>* records, int* duplicates) {
  fleet::ServerOptions opts;
  opts.workers = 1;  // FaultInjector is not thread-safe
  opts.max_queue = static_cast<int>(lines.size()) + 8;  // no shedding here
  opts.state_path = state_path;
  fleet::Server server(opts);
  std::atomic<int> emitted{0};
  const auto sink = [&](const fleet::RequestRecord& rec) {
    emitted.fetch_add(1, std::memory_order_relaxed);
    if (!records->emplace(rec.id, rec).second) ++*duplicates;
  };
  std::function<bool()> stop;
  if (stop_after_records >= 0) {
    stop = [&emitted, stop_after_records] {
      return emitted.load(std::memory_order_relaxed) >= stop_after_records;
    };
  }
  return server.run(lines, sink, stop);
}

struct FleetSeedOutcome {
  std::uint64_t seed = 0;
  int leg = 0;
  int stop_after = 0;
  int mismatches = 0;
  std::int64_t parked = 0;
  std::int64_t resume_skipped = 0;
  bool drained = false;
};

/// Reference (uninterrupted) vs chaos (drain at a deterministic record
/// count, then restart) serve runs under one fault leg, compared per id.
FleetSeedOutcome fleet_soak_seed(std::uint64_t seed, int leg,
                                 const std::string& dir, int n) {
  FleetSeedOutcome out;
  out.seed = seed;
  out.leg = leg;
  const std::vector<std::string> lines = fleet_request_lines(seed, n);
  const std::string ref_path =
      dir + "/fleet_ref_" + std::to_string(seed) + ".ckpt";
  const std::string chaos_path =
      dir + "/fleet_chaos_" + std::to_string(seed) + ".ckpt";
  fleet_cleanup(ref_path, lines);
  fleet_cleanup(chaos_path, lines);

  // Legs 1/2 fault persistence (answer-neutral: retry or degradation must
  // absorb them): leg 1 the drain manifest, leg 2 the first session-log
  // save of the first stream request.  Leg 3 faults a request payload
  // (answer-changing, so the reference arms it identically — execution
  // order is deterministic at workers=1, both runs poison the same
  // request).
  const char* const site = leg == 1   ? common::faults::kFleetDrainCrash
                          : leg == 2 ? common::faults::kCheckpointWriteFail
                          : leg == 3 ? common::faults::kFleetRequestPoison
                                     : nullptr;
  const auto arm = [site](common::FaultInjector* injector) {
    if (site != nullptr) injector->arm(site, {.times = 1});
  };
  const auto fail = [&](const char* what) {
    std::fprintf(stderr, "MISMATCH seed=%llu fleet: %s\n",
                 static_cast<unsigned long long>(seed), what);
    ++out.mismatches;
  };

  std::map<std::string, fleet::RequestRecord> ref_records;
  int duplicates = 0;
  {
    common::FaultInjector injector(seed ^ 0xF1EE70FAULL);
    arm(&injector);
    common::FaultScope scope(injector);
    (void)run_fleet_segment(lines, ref_path, -1, &ref_records, &duplicates);
  }
  if (static_cast<int>(ref_records.size()) != n || duplicates != 0)
    fail("reference run did not emit exactly one record per request");

  common::Rng kr(seed ^ 0xF1EE7C4AULL);
  out.stop_after = 1 + static_cast<int>(kr.uniform_index(
                           static_cast<std::uint64_t>(n - 1)));
  std::map<std::string, fleet::RequestRecord> chaos_records;
  int chaos_duplicates = 0;
  {
    common::FaultInjector injector(seed ^ 0xF1EE70FBULL);
    arm(&injector);
    common::FaultScope scope(injector);
    const fleet::ServerReport first =
        run_fleet_segment(lines, chaos_path, out.stop_after, &chaos_records,
                          &chaos_duplicates);
    out.drained = first.drained;
    out.parked = first.parked;
    const fleet::ServerReport second = run_fleet_segment(
        lines, chaos_path, -1, &chaos_records, &chaos_duplicates);
    out.resume_skipped = second.resume_skipped;
    if (first.shed + second.shed != 0)
      fail("unexpected shedding with max_queue >= request count");
    if (site != nullptr && injector.fired(site) == 0)
      fail("the leg's fault site never fired");
  }
  if (chaos_duplicates != 0)
    fail("a request id was served twice across the drain/restart pair");

  for (const auto& [id, want] : ref_records) {
    const auto it = chaos_records.find(id);
    if (it == chaos_records.end()) {
      std::fprintf(stderr,
                   "MISMATCH seed=%llu fleet id=%s: lost across restart\n",
                   static_cast<unsigned long long>(seed), id.c_str());
      ++out.mismatches;
      continue;
    }
    const fleet::RequestRecord& got = it->second;
    if (got.outcome != want.outcome || got.code != want.code ||
        got.converged != want.converged || got.message != want.message) {
      std::fprintf(stderr,
                   "MISMATCH seed=%llu fleet id=%s: reference %s/%s "
                   "\"%s\", resumed %s/%s \"%s\"\n",
                   static_cast<unsigned long long>(seed), id.c_str(),
                   fleet::to_string(want.outcome),
                   common::to_string(want.code), want.message.c_str(),
                   fleet::to_string(got.outcome),
                   common::to_string(got.code), got.message.c_str());
      ++out.mismatches;
    }
    if (!close_to(want.total_slots, got.total_slots)) {
      std::fprintf(stderr,
                   "MISMATCH seed=%llu fleet id=%s total_slots: reference "
                   "%.17g, resumed %.17g\n",
                   static_cast<unsigned long long>(seed), id.c_str(),
                   want.total_slots, got.total_slots);
      ++out.mismatches;
    }
  }
  for (const auto& [id, rec] : chaos_records) {
    (void)rec;
    if (ref_records.find(id) == ref_records.end()) {
      std::fprintf(stderr,
                   "MISMATCH seed=%llu fleet id=%s: extra record not in "
                   "the reference run\n",
                   static_cast<unsigned long long>(seed), id.c_str());
      ++out.mismatches;
    }
  }

  fleet_cleanup(ref_path, lines);
  fleet_cleanup(chaos_path, lines);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  common::CliFlags flags;
  flags.parse(argc, argv);
  // Strict flags: a malformed or out-of-range value, a flag the chosen soak
  // does not accept or a stray argument exits 2 naming it before any work —
  // never a soak of a configuration nobody asked for.
  common::Status bad;
  const auto int_flag = [&](const char* name, std::int64_t def,
                            std::int64_t lo, std::int64_t hi) {
    const auto v = flags.get_int_checked(name, def, lo, hi);
    if (!v.ok() && bad.ok()) bad = v.status();
    return v.ok() ? v.value() : def;
  };
  const bool fleet = flags.get_bool("fleet", false);
  const int seeds = static_cast<int>(int_flag("seeds", 3, 1, 1 << 20));
  const auto seed_base = static_cast<std::uint64_t>(
      int_flag("seed-base", 1, 0, std::numeric_limits<std::int64_t>::max()));
  const std::string out_path = flags.get_string("out", "");
  const std::string dir = flags.get_string("dir", ".");
  SoakSetup s;
  int n = 0;
  if (fleet) {
    n = static_cast<int>(int_flag("requests", 9, 2, 1 << 20));
  } else {
    s.links = static_cast<int>(int_flag("links", s.links, 1, 4096));
    s.channels = static_cast<int>(int_flag("channels", s.channels, 1, 1024));
    s.levels = static_cast<int>(int_flag("levels", s.levels, 1, 64));
    s.gops = static_cast<int>(int_flag("gops", s.gops, 2, 1 << 20));
    const auto p_block = flags.get_double_checked("p-block", s.p_block, 0.0,
                                                  1.0);
    if (!p_block.ok() && bad.ok()) bad = p_block.status();
    if (p_block.ok()) s.p_block = p_block.value();
  }
  if (bad.ok()) bad = flags.check_unused();
  if (!bad.ok()) {
    std::fprintf(stderr, "error: %s\n", bad.message().c_str());
    return 2;
  }

  if (fleet) {
    std::vector<FleetSeedOutcome> outcomes;
    int total_mismatches = 0;
    for (int i = 0; i < seeds; ++i) {
      const std::uint64_t seed = seed_base + static_cast<std::uint64_t>(i);
      // Cycle the fleet fault legs: 0 none, 1 drain-manifest kIoError,
      // 2 stream session-log write failure, 3 poisoned request payload.
      FleetSeedOutcome o = fleet_soak_seed(seed, i % 4, dir, n);
      std::printf("seed %llu: fleet leg %d, drain after %d record(s), "
                  "%lld parked, %lld resume-skipped: %s\n",
                  static_cast<unsigned long long>(o.seed), o.leg,
                  o.stop_after, static_cast<long long>(o.parked),
                  static_cast<long long>(o.resume_skipped),
                  o.mismatches == 0 ? "MATCH" : "MISMATCH");
      total_mismatches += o.mismatches;
      outcomes.push_back(o);
    }
    if (!out_path.empty()) {
      std::FILE* f = std::fopen(out_path.c_str(), "w");
      if (f != nullptr) {
        std::fprintf(f,
                     "{\"bench\":\"chaos_soak_fleet\",\"requests\":%d,"
                     "\"seeds\":%d,\"all_match\":%s,\"runs\":[",
                     n, seeds, total_mismatches == 0 ? "true" : "false");
        for (std::size_t i = 0; i < outcomes.size(); ++i) {
          const FleetSeedOutcome& o = outcomes[i];
          std::fprintf(f,
                       "%s{\"seed\":%llu,\"leg\":%d,\"stop_after\":%d,"
                       "\"drained\":%s,\"parked\":%lld,"
                       "\"resume_skipped\":%lld,\"mismatches\":%d}",
                       i == 0 ? "" : ",",
                       static_cast<unsigned long long>(o.seed), o.leg,
                       o.stop_after, o.drained ? "true" : "false",
                       static_cast<long long>(o.parked),
                       static_cast<long long>(o.resume_skipped),
                       o.mismatches);
        }
        std::fprintf(f, "]}\n");
        std::fclose(f);
        std::printf("report written to %s\n", out_path.c_str());
      } else {
        std::fprintf(stderr, "warning: cannot write %s\n", out_path.c_str());
      }
    }
    if (total_mismatches == 0) {
      std::printf("fleet chaos soak PASSED: %d seed(s), drained/restarted "
                  "serve runs identical to uninterrupted runs\n", seeds);
      return 0;
    }
    std::printf("fleet chaos soak FAILED: %d mismatch(es)\n",
                total_mismatches);
    return 1;
  }

  std::vector<SeedOutcome> outcomes;
  int total_mismatches = 0;
  for (int i = 0; i < seeds; ++i) {
    const std::uint64_t seed = seed_base + static_cast<std::uint64_t>(i);
    SeedOutcome o = soak_seed(s, seed, dir);
    std::printf("seed %llu [%s]: %d lifetimes (%d fault legs), %lld saves, "
                "%lld B: %s\n",
                static_cast<unsigned long long>(seed),
                soak_policy(seed)->name(), o.lifetimes,
                o.fault_legs, static_cast<long long>(o.stats.saves),
                static_cast<long long>(o.stats.full_bytes),
                o.mismatches == 0 ? "MATCH" : "MISMATCH");
    total_mismatches += o.mismatches;
    outcomes.push_back(std::move(o));
  }

  if (!out_path.empty()) {
    std::FILE* f = std::fopen(out_path.c_str(), "w");
    if (f != nullptr) {
      std::fprintf(f,
                   "{\"bench\":\"chaos_soak\",\"links\":%d,\"channels\":%d,"
                   "\"gops\":%d,\"p_block\":%.17g,\"seeds\":%d,"
                   "\"all_match\":%s,\"runs\":[",
                   s.links, s.channels, s.gops, s.p_block, seeds,
                   total_mismatches == 0 ? "true" : "false");
      for (std::size_t i = 0; i < outcomes.size(); ++i) {
        const SeedOutcome& o = outcomes[i];
        std::fprintf(
            f,
            "%s{\"seed\":%llu,\"lifetimes\":%d,\"fault_legs\":%d,"
            "\"mismatches\":%d,\"saves\":%lld,\"bytes\":%lld}",
            i == 0 ? "" : ",", static_cast<unsigned long long>(o.seed),
            o.lifetimes, o.fault_legs, o.mismatches,
            static_cast<long long>(o.stats.saves),
            static_cast<long long>(o.stats.full_bytes));
      }
      std::fprintf(f, "]}\n");
      std::fclose(f);
      std::printf("report written to %s\n", out_path.c_str());
    } else {
      std::fprintf(stderr, "warning: cannot write %s\n", out_path.c_str());
    }
  }

  if (total_mismatches == 0) {
    std::printf("chaos soak PASSED: %d seed(s), resumed runs identical to "
                "uninterrupted runs\n", seeds);
    return 0;
  }
  std::printf("chaos soak FAILED: %d mismatch(es)\n", total_mismatches);
  return 1;
}

#include "fleet/server.h"

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "common/fault_injection.h"
#include "common/thread_pool.h"
#include "core/checkpoint.h"
#include "core/column_generation.h"
#include "mmwave/blockage.h"
#include "mmwave/network.h"
#include "stream/blockage_session.h"
#include "video/demand.h"

namespace mmwave::fleet {

namespace {

using Clock = std::chrono::steady_clock;
using common::ErrorCode;
using common::Status;

/// Base of the linear backoff between transient-kIoError write retries.
constexpr double kRetryBackoffSec = 0.001;

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

void backoff_sleep(double base_sec, int attempt) {
  const double sec = base_sec * (attempt + 1);
  std::this_thread::sleep_for(
      std::chrono::duration<double>(sec > 0.0 ? sec : 0.0));
}

net::NetworkParams params_of(const FleetRequest& req) {
  net::NetworkParams params;
  params.num_links = req.links;
  params.num_channels = req.channels;
  params.sinr_thresholds.resize(req.levels);
  for (int q = 0; q < req.levels; ++q) {
    params.sinr_thresholds[q] = 0.1 * (q + 1) * req.gamma_scale;
  }
  return params;
}

std::string hex64(std::uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, value);
  return buf;
}

// ---------------------------------------------------------------------------
// Queue manifest: the drain-time record of which requests finished and which
// were parked, written atomically at state_path + ".queue".
//
//   mmwave-fleet-queue v1
//   done <id>
//   pending <raw request line>
//   end fnv=0x<core::fnv1a64 of the body lines>
// ---------------------------------------------------------------------------

struct QueueManifest {
  bool loaded = false;
  std::set<std::string> done;
  std::vector<std::string> pending;
};

QueueManifest load_queue_manifest(const std::string& path) {
  QueueManifest manifest;
  std::ifstream in(path);
  if (!in) return manifest;  // missing = fresh serve run, not an error
  std::string line;
  if (!std::getline(in, line) || line != "mmwave-fleet-queue v1") {
    return manifest;  // damaged header: degrade to a cold (full) run
  }
  std::string body;
  std::set<std::string> done;
  std::vector<std::string> pending;
  bool saw_end = false;
  while (std::getline(in, line)) {
    if (line.rfind("end fnv=0x", 0) == 0) {
      if (line.substr(10) != hex64(core::fnv1a64(body))) return manifest;
      saw_end = true;
      break;
    }
    body += line;
    body += '\n';
    if (line.rfind("done ", 0) == 0) {
      done.insert(line.substr(5));
    } else if (line.rfind("pending ", 0) == 0) {
      pending.push_back(line.substr(8));
    } else {
      return manifest;  // unknown record kind: treat the file as damaged
    }
  }
  if (!saw_end) return manifest;  // torn tail: degrade to a cold run
  manifest.loaded = true;
  manifest.done = std::move(done);
  manifest.pending = std::move(pending);
  return manifest;
}

[[nodiscard]] Status write_manifest_once(const std::string& path,
                                         const std::string& body) {
  if (common::fault_fires(common::faults::kFleetDrainCrash)) {
    return Status::Error(ErrorCode::kIoError,
                         "injected fault: fleet.drain_crash");
  }
  return core::write_file_atomic(
      path, "mmwave-fleet-queue v1\n" + body + "end fnv=0x" +
                hex64(core::fnv1a64(body)) + "\n");
}

[[nodiscard]] Status write_manifest_with_retry(const std::string& path,
                                               const std::string& body,
                                               int retries,
                                               double backoff_sec) {
  Status st = Status::Ok();
  for (int attempt = 0; attempt <= retries; ++attempt) {
    if (attempt > 0) backoff_sleep(backoff_sec, attempt - 1);
    st = write_manifest_once(path, body);
    if (st.ok() || st.code() != ErrorCode::kIoError) return st;
  }
  return st;
}

// ---------------------------------------------------------------------------
// Per-run serving state shared between the admission loop and the workers.
// Slot references stay valid for the whole run (std::deque never relocates
// elements), but the deque itself must only be indexed under `mu` —
// push_back can grow the block map concurrently.
// ---------------------------------------------------------------------------

struct Slot {
  std::string raw;
  FleetRequest req;
  RequestRecord record;
  enum class State { kQueued, kRunning, kDone, kParked };
  State state = State::kQueued;
  Clock::time_point admit_time{};
  Clock::time_point start_time{};
};

struct RunState {
  std::mutex mu;
  std::deque<Slot> slots;
  std::size_t next_emit = 0;
  int queued = 0;   ///< admitted, not yet started (the bounded queue)
  int running = 0;  ///< started, not yet finished
  bool draining = false;
  ServerReport report;
  /// id -> slot index of every admitted (queued/running/finished) request.
  std::map<std::string, std::size_t> by_id;
  /// Finished ids from the resume manifest: skipped on re-feed.
  std::set<std::string> done_ids;
};

/// Emits finished records in admission order; parked slots emit nothing
/// (they live on in the queue manifest instead).  Caller holds rs.mu.
void flush_records_locked(RunState& rs, const RecordSink& sink) {
  while (rs.next_emit < rs.slots.size()) {
    Slot& slot = rs.slots[rs.next_emit];
    if (slot.state == Slot::State::kDone) {
      sink(slot.record);
      ++rs.next_emit;
    } else if (slot.state == Slot::State::kParked) {
      ++rs.next_emit;
    } else {
      break;
    }
  }
}

// ---------------------------------------------------------------------------
// Request executors.  Instances are built exactly the way the CLI commands
// of the same names build them, so fleet records are comparable to
// per-process runs.
// ---------------------------------------------------------------------------

void fill_from_cg(const core::CgResult& result, RequestRecord* rec) {
  rec->total_slots = result.total_slots;
  rec->iterations = result.iterations;
  rec->converged = result.converged;
  if (result.stop_reason == core::CgStopReason::kInvalidInput) {
    rec->outcome = RequestOutcome::kError;
    rec->code = result.status.code();
    rec->message = result.status.message();
  } else if (result.degraded) {
    rec->outcome = RequestOutcome::kDegraded;
    rec->code = result.status.code();
    rec->message = core::to_string(result.stop_reason);
  } else {
    rec->outcome = RequestOutcome::kOk;
    rec->code = ErrorCode::kOk;
  }
}

void run_solve_request(const FleetRequest& req, RequestRecord* rec) {
  common::Rng rng(req.seed);
  net::NetworkParams params = params_of(req);
  core::CgOptions opts;
  opts.pricing = req.pricing;
  opts.deadline_sec = req.deadline_sec;
  video::DemandConfig dcfg;
  dcfg.demand_scale = req.demand_scale;
  if (req.op == FleetOp::kSolve) {
    net::Network net = net::Network::table_i(params, rng);
    common::Rng drng = rng.fork(0x5EED);
    const auto demands = video::make_link_demands(req.links, dcfg, drng);
    fill_from_cg(core::solve_column_generation(net, demands, opts), rec);
  } else {
    // resolve: same gain/demand streams as solve, with the blocked links'
    // receivers attenuated (the CLI resolve construction).
    net::TableIChannelModel base(req.links, req.channels, params.noise_watts,
                                 rng);
    common::Rng drng = rng.fork(0x5EED);
    const auto demands = video::make_link_demands(req.links, dcfg, drng);
    std::vector<double> scales(req.links, 1.0);
    for (int l : req.block_links) scales[l] = req.block_atten;
    net::Network net(params, std::make_unique<net::RxScaledChannelModel>(
                                 &base, std::move(scales)));
    fill_from_cg(core::solve_column_generation(net, demands, opts), rec);
  }
}

void run_stream_request(const ServerOptions& options, const FleetRequest& req,
                        RequestRecord* rec) {
  common::Rng rng(req.seed);
  net::NetworkParams params = params_of(req);
  net::TableIChannelModel base(req.links, req.channels, params.noise_watts,
                               rng);
  stream::BlockageSessionConfig cfg;
  cfg.session.num_gops = req.gops;
  cfg.session.demand_scale = req.demand_scale;
  cfg.blockage.p_block = req.p_block;
  cfg.blockage.attenuation = 0.05;
  cfg.session_fingerprint =
      stream::blockage_session_fingerprint(cfg, req.links, req.seed);

  stream::SolverContext context;
  stream::CgSchedulerOptions sched_opts;
  sched_opts.heuristic_only = req.pricing == core::PricingMode::HeuristicOnly;

  stream::BlockageRunControl control;
  core::StreamCursor resume_cursor;
  std::unique_ptr<core::CheckpointLog> log;
  if (!options.state_path.empty()) {
    sched_opts.capture_checkpoint = true;
    log = std::make_unique<core::CheckpointLog>(options.state_path + ".req_" +
                                                req.id);
    const core::CheckpointLogLoad loaded = log->open();
    if (loaded.loaded && loaded.state.has_session) {
      resume_cursor = loaded.state.session;
      control.resume = &resume_cursor;
    }
    control.on_period = [&](const core::StreamCursor& cursor, int) {
      if (context.has_last_checkpoint) {
        core::CgCheckpoint ckpt = context.last_checkpoint;
        ckpt.has_session = true;
        ckpt.session = cursor;
        // Keep streaming on failure: the previous save still loads and the
        // next period's save rewrites the whole file.
        (void)save_with_retry(*log, ckpt, options.io_retries,
                              kRetryBackoffSec);  // lint: discard
      }
      return true;
    };
  }
  common::Rng session_rng = rng.fork(1);
  const stream::BlockageSessionMetrics metrics = stream::run_blockage_session(
      base, params, cfg, stream::make_cg_scheduler(sched_opts, &context),
      session_rng, &context, &control);
  rec->total_slots = metrics.base.total_stall_slots;
  rec->iterations = req.gops;
  rec->converged = metrics.base.all_served;
  rec->message = "digest=0x" + hex64(metrics.plan_digest_chain);
  if (metrics.resume_rejected) rec->message += " resume_rejected";
  rec->outcome = RequestOutcome::kOk;
  rec->code = ErrorCode::kOk;
}

/// Worker body for one admitted slot: drain check, poison check, op
/// execution, record finish + in-order emission.
void execute_slot(const ServerOptions& options, RunState& rs,
                  std::size_t index, const RecordSink& sink,
                  const std::function<bool()>& should_stop) {
  // The serving thread polls should_stop() only between its own steps, so
  // the worker asks too: no request starts once a stop was requested.
  const bool stop = should_stop && should_stop();
  Slot* slot = nullptr;
  {
    std::lock_guard<std::mutex> lock(rs.mu);
    slot = &rs.slots[index];
    --rs.queued;
    if (stop) rs.draining = true;
    if (rs.draining) {
      // Park: this request was admitted but never started; the drain
      // manifest carries it to the next serve run.
      slot->state = Slot::State::kParked;
      ++rs.report.parked;
      flush_records_locked(rs, sink);
      return;
    }
    slot->state = Slot::State::kRunning;
    ++rs.running;
    slot->start_time = Clock::now();
  }

  RequestRecord rec;
  if (common::fault_fires(common::faults::kFleetRequestPoison)) {
    rec.outcome = RequestOutcome::kError;
    rec.code = ErrorCode::kInvalidInput;
    rec.message = "poisoned request payload";
  } else if (slot->req.op == FleetOp::kStream) {
    run_stream_request(options, slot->req, &rec);
  } else {
    run_solve_request(slot->req, &rec);
  }

  {
    std::lock_guard<std::mutex> lock(rs.mu);
    rec.id = slot->req.id;
    rec.index = slot->record.index;
    rec.op = slot->req.op;
    rec.wait_seconds = seconds_between(slot->admit_time, slot->start_time);
    rec.exec_seconds = seconds_between(slot->start_time, Clock::now());
    slot->record = rec;
    slot->state = Slot::State::kDone;
    --rs.running;
    switch (rec.outcome) {
      case RequestOutcome::kOk: ++rs.report.completed; break;
      case RequestOutcome::kDegraded: ++rs.report.degraded; break;
      default: ++rs.report.errors; break;
    }
    flush_records_locked(rs, sink);
  }
}

}  // namespace

[[nodiscard]] Status save_with_retry(core::CheckpointLog& log,
                                     const core::CgCheckpoint& ckpt,
                                     int retries, double backoff_sec) {
  Status st = Status::Ok();
  for (int attempt = 0; attempt <= retries; ++attempt) {
    if (attempt > 0) backoff_sleep(backoff_sec, attempt - 1);
    st = log.save(ckpt);
    if (st.ok() || st.code() != ErrorCode::kIoError) return st;
  }
  return st;
}

Server::Server(ServerOptions options) : options_(std::move(options)) {
  if (options_.workers < 1) options_.workers = 1;
  if (options_.max_queue < 1) options_.max_queue = 1;
}

ServerReport Server::run(const std::vector<std::string>& lines,
                         const RecordSink& sink,
                         const std::function<bool()>& should_stop) {
  std::size_t next = 0;
  return run(
      [&lines, &next](std::string* out) {
        if (next >= lines.size()) return false;
        *out = lines[next++];
        return true;
      },
      sink, should_stop);
}

ServerReport Server::run(const LineSource& next_line, const RecordSink& sink,
                         const std::function<bool()>& should_stop) {
  RunState rs;

  // Bind to durable state: load the queue manifest of a drained previous
  // run.  A damaged manifest degrades to a full run, never an error.
  std::vector<std::string> manifest_pending;
  if (!options_.state_path.empty()) {
    QueueManifest manifest =
        load_queue_manifest(options_.state_path + ".queue");
    if (manifest.loaded) {
      rs.done_ids = std::move(manifest.done);
      manifest_pending = std::move(manifest.pending);
    }
  }

  auto workers = std::make_unique<common::ThreadPool>(
      common::resolve_threads(options_.workers));

  const auto stop_requested = [&should_stop] {
    return should_stop && should_stop();
  };

  // Admits one line: parse -> dedupe/skip -> bounded-queue check -> enqueue.
  const auto admit = [this, &rs, &sink, &workers,
                      &should_stop](const std::string& line) {
    const auto parsed = parse_request_line(line);
    std::lock_guard<std::mutex> lock(rs.mu);
    const int index = static_cast<int>(rs.slots.size());
    if (!parsed.ok()) {
      Slot& slot = rs.slots.emplace_back();
      slot.raw = line;
      slot.record.index = index;
      slot.record.outcome = RequestOutcome::kError;
      slot.record.code = parsed.status().code();
      slot.record.message = parsed.status().message();
      slot.state = Slot::State::kDone;
      ++rs.report.errors;
      flush_records_locked(rs, sink);
      return;
    }
    const FleetRequest& req = parsed.value();
    if (rs.done_ids.count(req.id) != 0) {
      // Finished in the run this one resumes: skipping is what makes
      // "re-feed the full request list" safe (nothing double-executes).
      ++rs.report.resume_skipped;
      return;
    }
    const auto known = rs.by_id.find(req.id);
    if (known != rs.by_id.end()) {
      if (rs.slots[known->second].raw == line) {
        ++rs.report.resume_skipped;  // verbatim re-feed of an admitted line
        return;
      }
      Slot& slot = rs.slots.emplace_back();
      slot.raw = line;
      slot.record.id = req.id;
      slot.record.index = index;
      slot.record.op = req.op;
      slot.record.outcome = RequestOutcome::kError;
      slot.record.code = ErrorCode::kInvalidInput;
      slot.record.message = "duplicate request id '" + req.id + "'";
      slot.state = Slot::State::kDone;
      ++rs.report.errors;
      flush_records_locked(rs, sink);
      return;
    }
    if (common::fault_fires(common::faults::kFleetQueueOverflow) ||
        rs.queued >= options_.max_queue) {
      // Backpressure is explicit: the caller gets a kOverloaded record,
      // never a silently vanished request.
      Slot& slot = rs.slots.emplace_back();
      slot.raw = line;
      slot.record.id = req.id;
      slot.record.index = index;
      slot.record.op = req.op;
      slot.record.outcome = RequestOutcome::kShed;
      slot.record.code = ErrorCode::kOverloaded;
      slot.record.message =
          "queue at capacity (max_queue=" +
          std::to_string(options_.max_queue) + ")";
      slot.state = Slot::State::kDone;
      ++rs.report.shed;
      flush_records_locked(rs, sink);
      return;
    }
    Slot& slot = rs.slots.emplace_back();
    slot.raw = line;
    slot.req = req;
    slot.record.id = req.id;
    slot.record.index = index;
    slot.record.op = req.op;
    slot.admit_time = Clock::now();
    slot.state = Slot::State::kQueued;
    rs.by_id[req.id] = static_cast<std::size_t>(index);
    ++rs.queued;
    ++rs.report.admitted;
    const std::size_t slot_index = static_cast<std::size_t>(index);
    workers->submit([this, &rs, slot_index, &sink, &should_stop] {
      execute_slot(options_, rs, slot_index, sink, should_stop);
    });
  };

  const auto is_blank = [](const std::string& line) {
    for (char c : line) {
      if (c != ' ' && c != '\t' && c != '\r') return false;
    }
    return true;
  };

  bool stopped = false;
  for (const std::string& line : manifest_pending) {
    if (stop_requested()) {
      stopped = true;
      break;
    }
    if (!is_blank(line)) admit(line);
  }
  std::string line;
  while (!stopped) {
    if (stop_requested()) {
      stopped = true;
      break;
    }
    if (!next_line(&line)) break;
    if (!is_blank(line)) admit(line);
  }
  if (stopped) {
    std::lock_guard<std::mutex> lock(rs.mu);
    rs.draining = true;
  }

  // Wait for the queue to settle: every admitted slot finished or parked.
  // A stop arriving here still drains — in-flight requests finish, queued
  // ones park when their task runs.
  while (true) {
    {
      std::lock_guard<std::mutex> lock(rs.mu);
      if (rs.queued == 0 && rs.running == 0) break;
      if (!stopped && stop_requested()) {
        stopped = true;
        rs.draining = true;
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  workers.reset();  // joins: all tasks have already settled

  {
    std::lock_guard<std::mutex> lock(rs.mu);
    // A worker may have seen the stop before the polling loop did.
    rs.report.drained = rs.draining;
    flush_records_locked(rs, sink);
  }

  // Persist the drain state: finished ids + parked request lines in the
  // manifest.  Transient IO faults retry with backoff
  // (faults::kFleetDrainCrash scripts one).
  if (!options_.state_path.empty()) {
    std::string body;
    for (const Slot& slot : rs.slots) {
      if (slot.state == Slot::State::kDone && !slot.record.id.empty()) {
        body += "done " + slot.record.id + "\n";
      } else if (slot.state == Slot::State::kParked) {
        body += "pending " + slot.raw + "\n";
      }
    }
    for (const std::string& id : rs.done_ids) body += "done " + id + "\n";
    rs.report.state_status = write_manifest_with_retry(
        options_.state_path + ".queue", body, options_.io_retries,
        kRetryBackoffSec);
  }
  return rs.report;
}

}  // namespace mmwave::fleet

// fleet::Server — a long-running multi-piconet scheduling daemon.
//
// One Server instance accepts solve/resolve/stream requests for many
// independent piconets (newline-delimited JSON, fleet/request.h) and runs
// them on a common::ThreadPool under per-request CgOptions deadlines.
// Every request solves cold, sharing no solver state with any other.
// Results are emitted as one record line per request, in admission order.
//
// Robustness contract (DESIGN.md section 13; every clause is fault-site
// scripted and test-enforced by tests/fleet/fleet_server_test.cpp and the
// chaos soak's --fleet leg):
//
//   * Admission control, never silent drops: the pending queue is bounded
//     by ServerOptions::max_queue; a request arriving at a full queue (or
//     under faults::kFleetQueueOverflow) is shed with an explicit
//     kOverloaded record.  Every admitted line ends in exactly one record.
//   * Per-request fault isolation: a malformed line, a poisoned payload
//     (faults::kFleetRequestPoison), an invalid instance, a poisoned LP
//     pivot or an expired deadline degrades THAT request — the record says
//     so — while the daemon and every other request stay healthy.
//   * Watchdog: requests that overrun watchdog_multiple times their own
//     deadline get their cancel flag set by a dedicated watchdog thread;
//     the in-solver cancellation point (scripted by
//     faults::kFleetWorkerStall) turns that into a kCancelled record.
//     Ordinary overruns are already bounded by CgOptions::deadline_sec —
//     the watchdog is the second line of defense for a wedged worker.
//   * Graceful drain: when should_stop() turns true, admission stops,
//     in-flight requests finish, queued-but-unstarted requests are parked
//     (each worker asks should_stop() before it starts a request, so none
//     starts after the stop) and written (with the finished ids) to the
//     queue manifest at state_path + ".queue".  A restarted run with the
//     same state_path skips the finished ids and runs only the remainder:
//     no request is lost or executed twice.  Manifest writes retry with
//     backoff on transient kIoError (faults::kFleetDrainCrash).
//
// Determinism: records (minus the timing fields) are bit-identical for any
// worker count — each is a pure function of its own request line.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/checkpoint_log.h"
#include "core/pool_manager.h"
#include "fleet/request.h"

namespace mmwave::fleet {

struct ServerOptions {
  /// Worker threads executing requests (>= 1).  Fault-injection scenarios
  /// run workers = 1: common::FaultInjector is not thread-safe, and the
  /// site-per-thread discipline (one armed site per firing thread) is only
  /// trivially guaranteed there.
  int workers = 1;
  /// Admitted-but-unstarted requests held before admission sheds
  /// (kOverloaded).  >= 1.
  int max_queue = 64;
  /// Watchdog cancels a running request once it exceeds this multiple of
  /// its own deadline (requests with deadline 0 are never cancelled).
  double watchdog_multiple = 8.0;
  /// Watchdog poll period, seconds.
  double watchdog_poll_sec = 0.002;
  /// Transient-kIoError retries for manifest and stream-checkpoint writes,
  /// with linear backoff between attempts.
  int io_retries = 3;
  double retry_backoff_sec = 0.001;
  /// Read only by perfbench/perf_e2e.cpp; both are ignored.
  bool share_pool = true;
  core::PoolManagerOptions pool;
  /// Durable-state base path: the queue manifest lives at state_path +
  /// ".queue" and stream requests' session logs at state_path +
  /// ".req_<id>".  Empty disables persistence (no drain manifest, no
  /// resume).
  std::string state_path;
};

struct ServerReport {
  std::int64_t admitted = 0;   ///< requests that entered the queue
  std::int64_t completed = 0;  ///< clean finishes (outcome ok)
  std::int64_t degraded = 0;   ///< anytime-contract finishes
  std::int64_t shed = 0;       ///< kOverloaded admission rejections
  std::int64_t errors = 0;     ///< malformed / poisoned / invalid requests
  std::int64_t cancelled = 0;  ///< watchdog cancellations
  /// Source lines skipped because the resume manifest already marks their
  /// id finished (or the line duplicates an already-admitted one verbatim).
  std::int64_t resume_skipped = 0;
  /// Admitted requests parked un-executed by a drain (now in the manifest).
  std::int64_t parked = 0;
  /// True when the run ended on should_stop() rather than source EOF.
  bool drained = false;
  /// Outcome of the drain-time manifest write (Ok when persistence is
  /// disabled).
  common::Status state_status;
};

/// Pulls the next request line; false = source exhausted (EOF).
using LineSource = std::function<bool(std::string*)>;
/// Receives each finished record, in admission order, exactly once.
using RecordSink = std::function<void(const RequestRecord&)>;

class Server {
 public:
  explicit Server(ServerOptions options);

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Serves until the source is exhausted (then finishes the queue) or
  /// should_stop() turns true (then drains).  should_stop() is called from
  /// the serving thread and from every worker, so it must be safe to call
  /// concurrently.  Reentrant-per-instance: each call is one serve run.
  ServerReport run(const LineSource& next_line, const RecordSink& sink,
                   const std::function<bool()>& should_stop = {});

  /// Convenience overload over a fixed request list.
  ServerReport run(const std::vector<std::string>& lines,
                   const RecordSink& sink,
                   const std::function<bool()>& should_stop = {});

  const ServerOptions& options() const { return options_; }
  /// Read only by perfbench/perf_e2e.cpp; inert (core/pool_manager.h).
  core::PoolManager& shared_pool() { return pool_; }

 private:
  ServerOptions options_;
  core::PoolManager pool_;
};

/// Saves `ckpt` through `log`, retrying transient kIoError up to `retries`
/// times with linear backoff (`backoff_sec`, 2x, 3x, ...).  Non-IO errors
/// do not retry.  Stream requests save their session logs through it;
/// exposed for the tests.
[[nodiscard]] common::Status save_with_retry(core::CheckpointLog& log,
                                             const core::CgCheckpoint& ckpt,
                                             int retries, double backoff_sec);

}  // namespace mmwave::fleet

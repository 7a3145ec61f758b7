// Multi-GOP streaming session simulation.
//
// The optimization in core/ solves ONE scheduling period (one GOP of
// demand per link).  A real streaming deployment — the paper's motivating
// scenario — repeats that every GOP period: demands for GOP g arrive, the
// PNC computes an allocation, and the period either fits in the GOP
// duration or the sessions stall.  This module runs that loop over a
// horizon, producing the per-session quality metrics a video service cares
// about: on-time GOP ratio, stall (rebuffering) time, and PSNR under the
// paper's quality model (eq. (1)).
//
// The scheduler is pluggable so the same horizon can be replayed under
// column generation, either benchmark, or TDMA.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/rng.h"
#include "core/checkpoint.h"
#include "core/pool_manager.h"
#include "mmwave/network.h"
#include "sched/timeline.h"
#include "video/demand.h"
#include "video/scalable.h"
#include "video/trace.h"

namespace mmwave::stream {

/// A scheduler maps (network, per-link demands) to a timeline.  Adapters
/// for the built-in algorithms are provided below.
struct SchedulerResult {
  std::vector<sched::TimedSchedule> timeline;
  /// Execution order appropriate for this scheduler's timeline.
  sched::ExecutionOrder order = sched::ExecutionOrder::AsGiven;
  bool ok = true;
};
using Scheduler = std::function<SchedulerResult(
    const net::Network&, const std::vector<video::LinkDemand>&)>;

/// Per-session solver record threaded through a CG scheduler (the
/// make_cg_scheduler overload).  Every period solves cold: the context
/// carries no columns from one solve to the next, only the crash-recovery
/// snapshot of the latest solve and the plan digests a resumed session is
/// checked against.
struct SolverContext {
  /// Read only by perfbench/perf_e2e.cpp; inert (core/pool_manager.h).
  core::PoolManager manager;

  // ---- Crash-recovery state (populated by make_cg_scheduler) -------------
  /// Snapshot of the most recent solve (CgSchedulerOptions::
  /// capture_checkpoint) without its columns: a resumed session re-solves
  /// cold from the cursor, so the caller persists this with the cursor
  /// attached.
  core::CgCheckpoint last_checkpoint;
  bool has_last_checkpoint = false;
  /// FNV digest of the most recent solve's timeline, and the rolling chain
  /// over every timeline solved through this context — the chaos-soak
  /// witness that a resumed session re-derives the exact same plans.
  std::uint64_t last_plan_digest = 0;
  std::uint64_t plan_digest_chain = 0;
  /// Solves whose certificate re-check (CgSchedulerOptions::verify)
  /// reported at least one error.  Stays 0 on healthy runs.
  int verify_failures = 0;
};

/// Built-in scheduler adapters.
Scheduler make_cg_scheduler(const struct CgSchedulerOptions& options);
/// The same cold CG scheduler, recording each solve into `context` when it
/// is non-null: the plan digest chain, verification failures and (with
/// capture_checkpoint) the latest solve's checkpoint.  The plans are those
/// of the context-free overload.  `context` must outlive the scheduler and
/// is not thread-safe (one session loop at a time).
Scheduler make_cg_scheduler(const struct CgSchedulerOptions& options,
                            SolverContext* context);
Scheduler make_tdma_scheduler();
Scheduler make_benchmark1_scheduler();
Scheduler make_benchmark2_scheduler();

struct CgSchedulerOptions {
  /// Heuristic pricing by default: the PNC must decide within a GOP period.
  bool heuristic_only = true;
  /// Capture a core::CgCheckpoint of each solve into the SolverContext so
  /// the session loop can persist a checkpoint after every period.
  bool capture_checkpoint = false;
  /// Re-check LP certificates and column feasibility after every solve;
  /// failures are counted in SolverContext::verify_failures.
  bool verify = false;
};

struct SessionConfig {
  int num_gops = 8;
  video::VideoConfig video;
  video::ScalableConfig scalable;
  /// Demand scaling (same role as video::DemandConfig::demand_scale).
  double demand_scale = 1.0;
  /// Quality model for PSNR reporting.
  video::PsnrModel psnr;
};

/// Per-GOP record for one period of the horizon.
struct GopRecord {
  int gop = 0;
  double demand_bits = 0.0;      ///< total over links
  double schedule_slots = 0.0;   ///< scheduling time the PNC produced
  double budget_slots = 0.0;     ///< slots available in one GOP period
  bool on_time = false;          ///< schedule fits within the period
  double stall_slots = 0.0;      ///< overrun carried into the next period
};

struct SessionMetrics {
  std::vector<GopRecord> gops;
  /// Fraction of GOP periods delivered within their period budget.
  double on_time_ratio = 0.0;
  /// Total overrun (slots) accumulated across the horizon.
  double total_stall_slots = 0.0;
  /// Mean per-link PSNR (dB) under eq. (1), computed from each link's
  /// session rate over the horizon.
  double mean_psnr_db = 0.0;
  /// True if every period's demand was eventually served.
  bool all_served = true;
};

/// Runs `num_gops` periods: each period draws fresh per-link GOP demands
/// from per-link trace streams (seeded from `rng`), invokes the scheduler,
/// and scores the outcome.  Overrun of period g is carried as stall into
/// period g+1 (the PNC starts late).
SessionMetrics run_session(const net::Network& net,
                           const SessionConfig& config,
                           const Scheduler& scheduler, common::Rng& rng);

}  // namespace mmwave::stream

// Streaming over a dynamically-blocked network.
//
// Extends stream::run_session with the two-state Markov blockage process:
// each GOP period the blockage states advance, the PNC re-solves the
// allocation against the *current* (attenuated) gains, and the period is
// scored as usual.  This replays the paper's static per-period optimization
// in the dynamic environment its companion works ([4]-[6]) study, and
// quantifies how much re-solving per period buys over a blockage-oblivious
// schedule computed once on the clear-air gains.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "core/checkpoint.h"
#include "mmwave/blockage.h"
#include "stream/client_buffer.h"
#include "stream/session.h"

namespace mmwave::stream {

struct BlockageSessionConfig {
  SessionConfig session;
  net::BlockageConfig blockage;
  /// If false, the scheduler sees the clear-air network every period (the
  /// schedule is computed obliviously) while execution still happens on the
  /// blocked gains — rate levels that no longer meet their SINR deliver
  /// nothing that period.
  bool reschedule_each_period = true;
  /// Client playout-buffer model: thresholds plus the drain-risk policy's
  /// shaping knobs.  Buffers are always tracked (they are pure observers
  /// under the blind policy); all five scalars enter the fingerprint.
  ClientBufferConfig buffer;
  /// Demand-shaping policy applied before each period's solve; null means
  /// the buffer-blind baseline (demands pass through untouched, schedules
  /// and plan digests are bit-identical to pre-buffer sessions).  Non-owning;
  /// must outlive the run.
  const DemandPolicy* demand_policy = nullptr;
  /// Binds saved stream cursors to this session's defining inputs.  Compute
  /// with blockage_session_fingerprint(); 0 disables the fingerprint check
  /// on resume (the blockage-replay check still applies).
  std::uint64_t session_fingerprint = 0;
};

/// Hash of the session-defining inputs — dimensions, horizon, demand
/// scaling, video shape, blockage chain parameters, and the session seed.
/// Two sessions that could produce different period streams fingerprint
/// differently, so a cursor can never be silently resumed against the
/// wrong session.
std::uint64_t blockage_session_fingerprint(const BlockageSessionConfig& config,
                                           int num_links, std::uint64_t seed);

/// Optional crash-recovery hooks for run_blockage_session.
struct BlockageRunControl {
  /// Resume from this cursor: periods [next_gop, num_gops) are run on top
  /// of the cursor's replayed state.  The cursor must come from the same
  /// session (fingerprint, horizon, dimensions, and a Markov-chain replay
  /// of the blockage states are all validated; any mismatch sets
  /// BlockageSessionMetrics::resume_rejected and the session runs fresh
  /// from period 0).
  const core::StreamCursor* resume = nullptr;
  /// Called after each completed period with the cursor describing the
  /// session state at that GOP boundary; return false to stop the run there
  /// (BlockageSessionMetrics::completed turns false).  Persisting the
  /// cursor (core::CheckpointLog::save of a checkpoint carrying it) makes
  /// that boundary a crash-recovery point.
  std::function<bool(const core::StreamCursor&, int gop)> on_period;
};

struct BlockageSessionMetrics {
  SessionMetrics base;
  /// Mean fraction of links blocked per period.
  double mean_blocked_fraction = 0.0;
  /// Periods in which at least one scheduled transmission was invalidated
  /// by blockage (only nonzero for oblivious scheduling).
  int invalidated_periods = 0;
  /// Transmissions dropped at execution time because blockage pushed their
  /// SINR below threshold — which scheduled columns (partially) died.
  int exec_transmissions_dropped = 0;

  // --- Client-buffer QoE (populated from the per-link ClientBuffers; under
  // --- the blind policy these are pure observations and change nothing
  // --- about scheduling).
  /// Total playback stall across links (seconds of frozen playout; startup
  /// wait before the first start is not counted).
  double stall_seconds = 0.0;
  /// Total underrun events across links (playback paused mid-period).
  int rebuffer_events = 0;
  /// (GOP, layer) pairs offered: HP/LP layers with nonzero nominal demand,
  /// summed over executed — or, after a resume, replayed — periods.
  int layer_gops_offered = 0;
  /// (GOP, layer) pairs delivered in full — delivered bits covered
  /// min(nominal, shaped) demand — summed over links and periods.
  int layer_gops_delivered = 0;
  /// layer_gops_delivered / layer_gops_offered (1.0 when nothing offered).
  double layer_delivery_ratio = 1.0;

  // --- Read only by perfbench/perf_e2e.cpp; always 0 (every period
  // --- solves cold, no columns are carried across periods).
  int pool_columns_loaded = 0;
  int pool_columns_reused = 0;
  int pool_columns_repaired = 0;
  int pool_columns_dropped = 0;
  std::int64_t pool_evicted = 0;

  // --- Crash-recovery accounting ------------------------------------------
  /// First period this call actually executed (> 0 only after a resume).
  /// base.gops still covers the whole horizon: replayed periods are scored
  /// from the cursor, so the final metrics equal the uninterrupted run's.
  /// base.all_served reflects only the periods executed by this call (the
  /// cursor does not carry per-period served flags).
  int start_gop = 0;
  /// A resume cursor was offered but failed validation or blockage replay;
  /// the session ran fresh from period 0.
  bool resume_rejected = false;
  /// False when BlockageRunControl::on_period stopped the run early.
  bool completed = true;
  /// Final rolling digest over every solved period's timeline (0 when no
  /// SolverContext was threaded through) — the chaos-soak witness.
  std::uint64_t plan_digest_chain = 0;

  /// One-line JSON rendering (stable key order, %.17g doubles) for log
  /// scraping; `mmwave_cli stream --metrics-json` emits it after the
  /// per-period lines.
  std::string to_json_line() const;
};

/// One-line JSON for the GOP boundary a cursor describes (stable key order,
/// %.17g doubles): the per-period record `mmwave_cli stream --metrics-json`
/// emits from BlockageRunControl::on_period.  Scoring fields come from the
/// cursor's last gop record; the buffer fields aggregate the cursor's
/// per-link buffer states (zeros when the cursor carries none).
std::string period_json_line(const core::StreamCursor& cursor);

/// `params` must match `base_model` (link/channel counts).  The blockage
/// process and the demand streams both derive from `rng`.
///
/// `solver_context`, when non-null, must be the same context the scheduler
/// was built with (make_cg_scheduler overload): the session then reports
/// its plan digest chain.  Passing a context the scheduler does not use is
/// harmless (the chain stays zero).
///
/// `control`, when non-null, adds crash recovery: `control->resume` replays
/// a saved cursor and continues mid-session, `control->on_period` surfaces
/// a fresh cursor at every GOP boundary (and can stop the run, simulating a
/// crash).  Resuming restores the solver context's digest chain, so the
/// final metrics equal the uninterrupted run's.
BlockageSessionMetrics run_blockage_session(
    const net::ChannelModel& base_model, const net::NetworkParams& params,
    const BlockageSessionConfig& config, const Scheduler& scheduler,
    common::Rng& rng, SolverContext* solver_context = nullptr,
    const BlockageRunControl* control = nullptr);

}  // namespace mmwave::stream

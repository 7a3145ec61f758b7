// Checkpoint/restore of the column-generation solver state.
//
// The most expensive artifact of one P1 solve is the pool of feasible
// schedules built by pricing.  CgCheckpoint captures that pool plus the
// surrounding solver state — instance fingerprint, per-column durations,
// duals, LB/UB, iteration counters and the stream-session cursor — in one
// versioned, checksummed, human-readable text format.  `solve --resume`
// and `resolve` re-enter CG warm from a checkpoint's pool only when its
// fingerprint matches the instance (core::resolve); a streaming session
// saves its cursor without columns and re-solves every period cold after
// a restart.
//
// Robustness contract (enforced by tests/core/checkpoint_test.cpp, the
// checkpoint fuzz harness, and the fault-injection sites in
// common/fault_injection.h):
//   * save_checkpoint writes atomically (temp file + rename): a crash
//     mid-write can lose the new checkpoint, never corrupt the old one;
//   * parse_checkpoint is strict: any corruption — truncation, bit flip
//     (caught by the FNV-1a payload checksum), a version other than
//     kCheckpointVersion, out-of-range field — returns a structured
//     common::Status, never crashes and never yields a partially-parsed
//     checkpoint;
//   * fingerprint mismatches are detectable by the caller, so a checkpoint
//     can never be silently replayed against the wrong instance;
//   * the session section is advisory: a structurally sound file whose
//     cursor is out of range degrades that section alone (session_degraded)
//     instead of rejecting the checkpoint.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "mmwave/network.h"
#include "sched/schedule.h"
#include "video/demand.h"

namespace mmwave::core {

struct CgResult;  // column_generation.h

/// The one on-disk format version: the version this build writes and the
/// only one parse_checkpoint reads.  Older files are refused ("unsupported
/// checkpoint version"); their callers start cold.
inline constexpr int kCheckpointVersion = 6;

/// Per-GOP scoring record of a completed streaming period (mirrors
/// stream::GopRecord; lives here because core cannot depend on stream).
struct StreamGopRecord {
  int gop = 0;
  double demand_bits = 0.0;
  double schedule_slots = 0.0;
  double budget_slots = 0.0;
  bool on_time = false;
  double stall_slots = 0.0;
};

/// Per-link client playout-buffer state persisted with the session cursor
/// (mirrors stream::ClientBuffer; lives here because core cannot depend on
/// stream).  Occupancy/stall are seconds of video; the layer counters are
/// GOPs whose HP/LP layer was delivered in full.
struct StreamBufferState {
  double occupancy_seconds = 0.0;
  double stall_seconds = 0.0;
  int rebuffer_events = 0;
  /// bit0 = playing, bit1 = started.  Playing implies started, so the
  /// value 1 is semantically invalid (parse degrades, resume rejects).
  int flags = 0;
  int hp_gops_delivered = 0;
  int lp_gops_delivered = 0;
};

/// The stream-session cursor persisted in the checkpoint: everything
/// `stream::run_blockage_session` needs to continue mid-session after a
/// crash.  Demands and blockage states are regenerated deterministically
/// from the session seed; the cursor pins where in those streams the
/// session was, plus the cumulative scores that cannot be replayed without
/// re-solving.
struct StreamCursor {
  /// First GOP period the resumed session still has to run; == num_gops
  /// when the session finished.  Always >= 1 in a valid cursor (a session
  /// with nothing completed saves no cursor).
  int next_gop = 0;
  int num_gops = 0;
  /// Hash of the session-defining inputs (instance flags, blockage config,
  /// horizon, seed); a resume against a different session is rejected.
  std::uint64_t session_fingerprint = 0;
  double carryover_stall = 0.0;
  double blocked_fraction_sum = 0.0;
  int invalidated_periods = 0;
  int exec_transmissions_dropped = 0;
  /// Rolling FNV digest over every solved period's timeline (the chaos-soak
  /// equality witness).
  std::uint64_t plan_digest = 0;
  /// Per-link bits delivered so far; size == links.
  std::vector<double> delivered_bits;
  /// Blockage state (0/1 per link) observed at period next_gop - 1: the
  /// resume replays the Markov chain and must land on exactly these bits,
  /// otherwise the cursor is stale and gets rejected.
  std::vector<int> blocked;
  /// Client playout-buffer state at the cursor position, one entry per
  /// link.  Any other size degrades the session (parse) or rejects the
  /// resume (stream::run_blockage_session).
  std::vector<StreamBufferState> buffers;
  /// Scoring records of the completed periods, in order (size next_gop).
  std::vector<StreamGopRecord> gops;
};

struct CgCheckpoint {
  /// FNV-1a fingerprint of the instance the state was computed on
  /// (dimensions, parameters, rate ladder, all gains/noises, demands).
  std::uint64_t fingerprint = 0;
  int links = 0;
  int channels = 0;
  /// CG iterations the checkpointed solve ran.
  int iterations = 0;
  bool converged = false;
  /// Incumbent MP objective (upper bound on the P1 optimum), slots.
  double total_slots = 0.0;
  /// Best Theorem-1 lower bound (NaN when none was certified).
  double lower_bound = 0.0;
  /// Final simplex multipliers per link (slots/bit); size == links.
  std::vector<double> duals_hp;
  std::vector<double> duals_lp;
  /// The column pool, in master order, with per-column rates/powers/channels
  /// embedded in each schedule's transmissions.
  std::vector<sched::Schedule> pool;
  /// Incumbent durations tau^s aligned with `pool` (0 outside the plan).
  std::vector<double> pool_tau;
  /// True when `session` holds a usable stream cursor.
  bool has_session = false;
  /// The stream-session cursor (meaningful only when has_session).
  StreamCursor session;
  /// True when the session section had to be discarded (out-of-range
  /// cursor, or the injected faults::kSessionCursorCorrupt): the solver
  /// state is intact, only the stream session restarts from period 0.
  bool session_degraded = false;
};

/// 64-bit FNV-1a over a byte string (the checkpoint payload checksum).
std::uint64_t fnv1a64(std::string_view bytes);

/// Order-sensitive fingerprint of a problem instance: network dimensions
/// and parameters, the rate ladder, every direct/cross gain, per-link noise
/// and topology, and the demand vector.  Two instances with any differing
/// bit in those inputs fingerprint differently (up to hash collision).
std::uint64_t instance_fingerprint(
    const net::Network& net, const std::vector<video::LinkDemand>& demands);

/// Snapshot of a finished (or degraded) solve, ready to save.
CgCheckpoint make_checkpoint(const net::Network& net,
                             const std::vector<video::LinkDemand>& demands,
                             const CgResult& result);

/// Serializes to the versioned, checksummed text format.
std::string serialize_checkpoint(const CgCheckpoint& checkpoint);

/// Strict parser: the exact inverse of serialize_checkpoint.  Returns
/// kInvalidInput with a one-line diagnosis on ANY deviation — wrong magic,
/// any version but kCheckpointVersion, checksum mismatch, truncation,
/// out-of-range or non-numeric fields, trailing garbage.  Never throws on
/// any byte sequence (fuzzed contract).
[[nodiscard]] common::Expected<CgCheckpoint> parse_checkpoint(
    std::string_view text);

/// Atomic whole-file write: `text` to `path + ".tmp"`, fsync-free fwrite,
/// then rename over `path`.  kIoError on any filesystem failure, after
/// which `path` still holds its previous content.  The one durable writer
/// of the project (checkpoints and the fleet queue manifest).
[[nodiscard]] common::Status write_file_atomic(const std::string& path,
                                               std::string_view text);

/// Serializes once and writes through write_file_atomic.  Returns kIoError
/// on any filesystem failure; a failed save never leaves a half-written
/// file at `path`.  Two fault sites script the failures:
/// faults::kCheckpointWriteFail fails before any byte is written, and
/// faults::kCheckpointTornWrite leaves half of `path + ".tmp"` on disk and
/// never renames it.  `bytes_written`, when given, receives the size of
/// the file a successful save wrote.
[[nodiscard]] common::Status save_checkpoint(
    const CgCheckpoint& checkpoint, const std::string& path,
    std::int64_t* bytes_written = nullptr);

/// Reads and strictly parses `path`.  kIoError when unreadable; otherwise
/// parse_checkpoint's verdict.  The fault site faults::kCheckpointCorrupt
/// flips a payload byte after the read to prove the checksum catches it.
[[nodiscard]] common::Expected<CgCheckpoint> load_checkpoint(
    const std::string& path);

}  // namespace mmwave::core

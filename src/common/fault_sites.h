// Central registry of fault-injection site names.
//
// Every `FaultInjector` site string used anywhere in src/ must be declared
// here, exactly once, as a `faults::k...` constant — and solver code must
// refer to the constant, never repeat the literal.  This file is the source
// of truth for the project-invariant linter's family-4 check
// (tools/lint/project_lint.py): the linter parses these declarations and
// verifies that (a) no site string is registered twice, (b) every src/
// `fault_fires` call uses a registry constant rather than a free literal,
// (c) every registered site is reached by solver code, and (d) every
// registered site is exercised by at least one test.  Tests may still arm
// ad-hoc site names ("site.a") to probe the injector mechanics themselves;
// the registry governs only the sites the production solvers check.
//
// Adding a fault site is therefore a three-part change by construction:
// declare the constant here, check it in the solver, and script it in a
// test — the lint gate fails if any leg is missing.
#pragma once

namespace mmwave::common::faults {

/// solve_milp returns NoSolution (limit hit, no incumbent) immediately.
inline constexpr const char* kMilpNoSolution = "milp.force_no_solution";
/// Branch & bound stops at the first incumbent (truncated Feasible exit).
inline constexpr const char* kMilpTruncate = "milp.truncate_incumbent";
/// A simplex pivot is poisoned: the solve aborts with NumericalError.
inline constexpr const char* kLpPivotPoison = "lp.pivot_poison";
/// The column-generation deadline reads as exhausted mid-iteration.
inline constexpr const char* kCgDeadline = "cg.deadline_exhausted";
/// save_checkpoint fails as if the disk write failed (full disk, EIO).
inline constexpr const char* kCheckpointWriteFail = "checkpoint.write_fail";
/// load_checkpoint reads a bit-flipped payload; the checksum must catch it
/// and the caller must degrade to a cold start.
inline constexpr const char* kCheckpointCorrupt = "checkpoint.corrupt_payload";
/// resolve()'s pool repair sees a column invalidated mid-solve (the
/// instance perturbed again under our feet); the column must be dropped,
/// never entered into the master.
inline constexpr const char* kResolveDropColumn = "resolve.drop_column";
/// save_checkpoint dies after writing half of `path + ".tmp"`, before the
/// rename.  The save must report kIoError and the file at `path` must still
/// load to the previous save; the next save rewrites the temp file.
inline constexpr const char* kCheckpointTornWrite = "checkpoint.torn_write";
/// A checkpoint session cursor reads as semantically bad: the parser
/// must degrade to "no session" (solver state kept, stream restarts the
/// session from period 0), never reject the checkpoint or crash.
inline constexpr const char* kSessionCursorCorrupt =
    "session.cursor_corrupt";
/// The client-buffer state carried by a session cursor reads as
/// semantically bad at resume time (NaN occupancy after a torn write, a
/// playing-without-started flags value): run_blockage_session must reject
/// the resume and run fresh from period 0, never replay garbage QoE
/// counters and never crash.
inline constexpr const char* kSessionBufferCorrupt =
    "session.buffer_corrupt";
/// A fleet request arrives poisoned (undecodable payload past admission):
/// the server must emit an error record for THAT request and keep serving —
/// one bad piconet never takes down the daemon.
inline constexpr const char* kFleetRequestPoison = "fleet.request_poison";
/// Admission reads the queue as full regardless of real occupancy: the
/// request must be shed with an explicit kOverloaded record, never dropped
/// silently and never enqueued past the bound.
inline constexpr const char* kFleetQueueOverflow = "fleet.queue_overflow";
/// A worker stalls mid-request (solver wedged past its deadline): the
/// watchdog must cancel the request at the hard deadline multiple while the
/// other workers keep draining the queue.
inline constexpr const char* kFleetWorkerStall = "fleet.worker_stall";
/// The drain-time queue checkpoint write dies with a transient kIoError:
/// the per-request retry-with-backoff must land it on a later attempt so a
/// SIGTERM drain still leaves a resumable queue on disk.
inline constexpr const char* kFleetDrainCrash = "fleet.drain_crash";

}  // namespace mmwave::common::faults

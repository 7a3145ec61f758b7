// Fleet serve-mode request protocol: newline-delimited JSON in, one result
// record line out per request (DESIGN.md section 13).
//
// A request line is one flat JSON object — string/number/bool values plus
// one integer-array key (block_links); no nesting.  The parser is strict
// the way the instance-spec parser is strict: an unknown key, a malformed
// value, or an out-of-range field is a structured kInvalidInput naming the
// offence, never a silently defaulted request that solves the wrong
// piconet.  A malformed line costs exactly one error record; it never
// takes the daemon down (faults::kFleetRequestPoison scripts the
// past-admission variant of that contract).
//
// Records are emitted in admission (index) order with a stable key order
// and %.17g doubles, so two runs over the same request list are
// line-comparable: the chaos soak's resumed-equals-uninterrupted check and
// the fleet bench both diff them directly.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/column_generation.h"

namespace mmwave::fleet {

/// What one request asks the daemon to run.  The ops mirror the CLI
/// commands of the same names and build their instances identically, so a
/// fleet record is comparable to a per-process `mmwave_cli <op>` run.
enum class FleetOp {
  kSolve,    ///< one column-generation solve
  kResolve,  ///< cold solve under receiver-side blockage attenuation
  kStream,   ///< multi-GOP blockage streaming session
};

const char* to_string(FleetOp op);

struct FleetRequest {
  /// Caller-chosen, unique per serve run; matches [A-Za-z0-9._-]{1,64}, so
  /// it fits on one queue-manifest line and in a state file name.
  std::string id;
  FleetOp op = FleetOp::kSolve;

  // Instance shape (same defaults and bounds as the CLI instance flags).
  int links = 6;
  int channels = 3;
  int levels = 3;
  double gamma_scale = 1.0;
  std::uint64_t seed = 1;
  double demand_scale = 1e-3;
  /// Wall-clock budget of a solve/resolve, seconds (CgOptions::deadline_sec):
  /// the request's only timeout.  0 = none.  Stream requests take none.
  double deadline_sec = 0.0;
  core::PricingMode pricing = core::PricingMode::HeuristicThenExact;

  // resolve-only:
  std::vector<int> block_links;
  double block_atten = 0.05;

  // stream-only:
  int gops = 4;
  double p_block = 0.0;
};

/// Parses one request line.  Strict: every key must be known and read by
/// the request's op (a resolve-only or stream-only key on another op, a
/// deadline or "pricing":"exact" on a stream, is an error naming the key
/// and the op), every value well-typed and in range, `id` present and of
/// the id grammar above.
[[nodiscard]] common::Expected<FleetRequest> parse_request_line(
    const std::string& line);

/// Terminal state of one request.
enum class RequestOutcome {
  kOk,         ///< ran to a clean (certified or fixed-point) finish
  kDegraded,   ///< anytime contract: incumbent returned, reason in `code`
  kShed,       ///< admission rejected it (queue full) — never executed
  kError,      ///< malformed/poisoned/invalid: no solve happened
};

const char* to_string(RequestOutcome outcome);

/// One result line.  For solve/resolve, total_slots/iterations/converged
/// are the CgResult fields; for stream, total_slots carries the session's
/// total stall slots, converged its all-served flag, and `message` the
/// plan-digest chain (the determinism witness).
struct RequestRecord {
  std::string id;
  int index = 0;  ///< admission order within the serve run
  FleetOp op = FleetOp::kSolve;
  RequestOutcome outcome = RequestOutcome::kOk;
  common::ErrorCode code = common::ErrorCode::kOk;
  std::string message;
  double total_slots = 0.0;
  int iterations = 0;
  bool converged = false;
  /// Admission-to-start / start-to-finish wall clock (not compared by the
  /// determinism checks — timing is the one legitimately variable field).
  double wait_seconds = 0.0;
  double exec_seconds = 0.0;

  /// Stable-key-order JSON line (ends without newline).
  std::string to_json_line() const;
};

}  // namespace mmwave::fleet

// Independent feasibility verification of emitted schedules.
//
// ScheduleVerifier re-derives every Section III/IV feasibility requirement
// of a sched::Schedule from first principles — channel gains, noise floors
// and the rate ladder only — sharing no code with the pricing MILP or the
// greedy heuristic that produced the schedule (it does not call
// net::achieved_sinr or the power-control solvers).  It is the certificate
// half of the correctness-analysis layer: a schedule the optimizer emits is
// accepted only if this referee can re-prove
//   * constraint (30): one (layer, rate, channel) choice per link — or, in
//     layer-split mode, one per (link, layer) on distinct channels;
//   * constraints (31)-(32): node half-duplex / single beam;
//   * per-link total power within [0, Pmax];
//   * constraint (3): co-channel SINR >= gamma^q at every active receiver
//     under the schedule's actual powers.
//
// Unlike sched::validate_schedule (a first-failure gate used inside the
// optimizer), the verifier collects *every* violation with structured
// context, so a corrupted schedule yields a full diagnosis.
#pragma once

#include <string>
#include <vector>

#include "mmwave/network.h"
#include "sched/schedule.h"
#include "sched/timeline.h"
#include "video/demand.h"

namespace mmwave::check {

enum class ViolationKind {
  LinkOutOfRange,
  ChannelOutOfRange,
  RateLevelOutOfRange,
  PowerOutOfRange,
  DuplicateLink,       ///< constraint (30): link scheduled twice
  DuplicateLayer,      ///< layer-split: same (link, layer) twice
  LayerSplitChannel,   ///< layer-split layers sharing one channel
  HalfDuplex,          ///< constraints (31)-(32): node used by two links
  LinkPowerCap,        ///< summed per-link power above Pmax
  SinrBelowThreshold,  ///< constraint (3): SINR < gamma^q
  NegativeDuration,    ///< timeline: tau^s < 0
  DemandShortfall,     ///< timeline: delivered bits below the demand
};

const char* to_string(ViolationKind kind);

struct Violation {
  ViolationKind kind = ViolationKind::SinrBelowThreshold;
  int link = -1;         ///< offending link, -1 when not link-specific
  int channel = -1;      ///< offending channel, -1 when not channel-specific
  double measured = 0.0; ///< the recomputed quantity
  double limit = 0.0;    ///< the bound it had to satisfy
  std::string detail;    ///< human-readable diagnosis

  std::string to_string() const;
};

struct VerifyReport {
  std::vector<Violation> violations;

  bool ok() const { return violations.empty(); }
  std::string to_string() const;
};

struct VerifyOptions {
  /// Accept one transmission per (link, layer) on distinct channels
  /// (the Section III remark) instead of one per link.
  bool allow_layer_split = false;
};

class ScheduleVerifier {
 public:
  explicit ScheduleVerifier(const net::Network& net, VerifyOptions options = {})
      : net_(net), options_(options) {}

  /// Re-proves feasibility of one schedule; collects all violations.
  VerifyReport verify(const sched::Schedule& schedule) const;

  /// Verifies every schedule of a solved timeline plus the covering
  /// requirement: sum_s tau^s r_l^s >= d_l per link and layer.  Links in
  /// `unserved_links` (demand excluded by the optimizer) are exempt from
  /// the coverage check.
  VerifyReport verify_timeline(
      const std::vector<sched::TimedSchedule>& timeline,
      const std::vector<video::LinkDemand>& demands,
      const std::vector<int>& unserved_links = {}) const;

  const VerifyOptions& options() const { return options_; }

 private:
  const net::Network& net_;
  VerifyOptions options_;
};

}  // namespace mmwave::check

// Instance validation: reject malformed problem instances with actionable
// diagnostics *before* any solver touches them.
//
// The solvers assume a well-formed instance (finite non-negative gains,
// finite non-negative demands, consistent link counts, a sane rate ladder).
// A NaN gain or a negative demand does not crash them — it silently poisons
// duals, bounds and schedules.  validate_instance re-derives every such
// assumption from the instance itself and reports *all* violations, each
// with enough context (link, channel, offending value) to fix the input.
//
// parse_instance_spec is the text front end used by `mmwave_cli
// --instance=FILE` and the fuzz harness: a line-oriented `key = value`
// format describing the Table-I generator parameters.  It returns a
// structured error (never throws, never crashes) on any malformed input —
// that contract is what the fuzzer exercises.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "mmwave/network.h"
#include "video/demand.h"

namespace mmwave::check {

/// One validation finding with enough context to act on it.
struct InstanceIssue {
  int link = -1;     ///< offending link, -1 when not link-specific
  int channel = -1;  ///< offending channel, -1 when not channel-specific
  std::string detail;

  std::string to_string() const;
};

struct InstanceReport {
  std::vector<InstanceIssue> issues;
  /// Findings beyond the reporting cap (the scan keeps counting so the
  /// caller knows the true extent, but stops allocating strings).
  int suppressed = 0;

  bool ok() const { return issues.empty() && suppressed == 0; }
  /// Multi-line human-readable diagnosis ("instance OK" when ok()).
  std::string to_string() const;
};

struct InstanceValidatorOptions {
  /// Stop materializing issue strings after this many findings (the count
  /// of additional ones is still reported via InstanceReport::suppressed).
  int max_issues = 32;
};

/// Re-derives every instance-level assumption the solvers make:
///   * demand vector sized to the network's link count;
///   * demands finite, non-negative, below the absurdity cap, and not all
///     zero (an all-zero instance is a unit mixup, not a problem);
///   * direct/cross gains finite and non-negative on every channel;
///   * per-link noise finite and positive;
///   * network parameters (Pmax, slot length, link/channel counts) positive;
///   * rate ladder non-empty with finite, positive, strictly ascending SINR
///     thresholds and positive rates.
InstanceReport validate_instance(const net::Network& net,
                                 const std::vector<video::LinkDemand>& demands,
                                 const InstanceValidatorOptions& options = {});

/// Generator parameters for a Table-I instance, as read from an instance
/// spec file.  Mirrors the mmwave_cli instance flags.
struct InstanceSpec {
  int links = 10;
  int channels = 5;
  int levels = 5;
  double gamma_scale = 1.0;
  std::uint64_t seed = 1;
  double demand_scale = 1e-3;
};

/// Parses the line-oriented instance-spec format:
///
///   # comment
///   links = 20
///   channels = 5
///   levels = 5
///   gamma_scale = 1.0
///   seed = 42
///   demand_scale = 1e-3
///
/// Unknown keys, non-numeric values, values out of their sane range
/// (links in [1, 4096], channels in [1, 1024], levels in [1, 64], positive
/// finite scales) and malformed lines each yield kInvalidInput with a
/// one-line "line N: ..." diagnosis.  Never throws on any byte sequence.
[[nodiscard]] common::Expected<InstanceSpec> parse_instance_spec(
    std::string_view text);

}  // namespace mmwave::check

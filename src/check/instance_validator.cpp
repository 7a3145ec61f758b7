#include "check/instance_validator.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <sstream>

namespace mmwave::check {
namespace {

/// Demands above this many bits are rejected as absurd (well beyond any
/// per-GOP video demand; guards accidental unit mixups like passing
/// bytes*1e9 or an un-scaled overflow).
constexpr double kMaxDemandBits = 1e18;

/// Collects findings up to the cap; keeps counting past it.
class IssueSink {
 public:
  IssueSink(InstanceReport& report, const InstanceValidatorOptions& options)
      : report_(report), options_(options) {}

  void add(int link, int channel, std::string detail) {
    if (static_cast<int>(report_.issues.size()) >= options_.max_issues) {
      ++report_.suppressed;
      return;
    }
    report_.issues.push_back({link, channel, std::move(detail)});
  }

 private:
  InstanceReport& report_;
  const InstanceValidatorOptions& options_;
};

std::string fmt(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

bool bad_gain(double g) { return !std::isfinite(g) || g < 0.0; }

}  // namespace

std::string InstanceIssue::to_string() const {
  std::ostringstream os;
  if (link >= 0) os << "link " << link << ": ";
  if (channel >= 0) os << "channel " << channel << ": ";
  os << detail;
  return os.str();
}

std::string InstanceReport::to_string() const {
  if (ok()) return "instance OK";
  std::ostringstream os;
  os << "invalid instance (" << issues.size() + suppressed << " finding"
     << (issues.size() + suppressed == 1 ? "" : "s") << "):";
  for (const InstanceIssue& issue : issues) {
    os << "\n  " << issue.to_string();
  }
  if (suppressed > 0) os << "\n  ... and " << suppressed << " more";
  return os.str();
}

InstanceReport validate_instance(const net::Network& net,
                                 const std::vector<video::LinkDemand>& demands,
                                 const InstanceValidatorOptions& options) {
  InstanceReport report;
  IssueSink sink(report, options);

  const int num_links = net.num_links();
  const int num_channels = net.num_channels();
  const net::NetworkParams& params = net.params();

  // --- Shape: counts must be positive and mutually consistent. ----------
  if (num_links <= 0)
    sink.add(-1, -1, "network has no links (num_links = " +
                         std::to_string(num_links) + ")");
  if (num_channels <= 0)
    sink.add(-1, -1, "network has no channels (num_channels = " +
                         std::to_string(num_channels) + ")");
  if (static_cast<int>(demands.size()) != num_links) {
    sink.add(-1, -1,
             "demand vector has " + std::to_string(demands.size()) +
                 " entries but the network has " + std::to_string(num_links) +
                 " links");
  }

  // --- Parameters. -------------------------------------------------------
  if (!std::isfinite(params.p_max_watts) || params.p_max_watts <= 0.0)
    sink.add(-1, -1, "Pmax must be finite and positive, got " +
                         fmt(params.p_max_watts) + " W");
  if (!std::isfinite(params.slot_seconds) || params.slot_seconds <= 0.0)
    sink.add(-1, -1, "slot length must be finite and positive, got " +
                         fmt(params.slot_seconds) + " s");
  if (!std::isfinite(params.bandwidth_hz) || params.bandwidth_hz <= 0.0)
    sink.add(-1, -1, "bandwidth must be finite and positive, got " +
                         fmt(params.bandwidth_hz) + " Hz");

  // --- Rate ladder: non-empty, ascending, positive. ----------------------
  const int num_levels = net.num_rate_levels();
  if (num_levels <= 0) {
    sink.add(-1, -1, "rate ladder is empty (no SINR thresholds)");
  }
  double prev_threshold = 0.0;
  for (int q = 0; q < num_levels; ++q) {
    const net::RateLevel& level = net.rate_level(q);
    if (!std::isfinite(level.sinr_threshold) || level.sinr_threshold <= 0.0) {
      sink.add(-1, -1,
               "rate level " + std::to_string(q) +
                   ": SINR threshold must be finite and positive, got " +
                   fmt(level.sinr_threshold));
    } else if (level.sinr_threshold <= prev_threshold) {
      sink.add(-1, -1,
               "rate level " + std::to_string(q) +
                   ": SINR thresholds must be strictly ascending (" +
                   fmt(level.sinr_threshold) + " after " +
                   fmt(prev_threshold) + ")");
    }
    if (std::isfinite(level.sinr_threshold))
      prev_threshold = level.sinr_threshold;
    if (!std::isfinite(level.rate_bps) || level.rate_bps <= 0.0) {
      sink.add(-1, -1, "rate level " + std::to_string(q) +
                           ": rate must be finite and positive, got " +
                           fmt(level.rate_bps) + " bps");
    }
  }

  // --- Demands: finite, non-negative, bounded, not all zero. -------------
  const int checked_links =
      std::min(num_links, static_cast<int>(demands.size()));
  double total_demand = 0.0;
  for (int l = 0; l < checked_links; ++l) {
    const video::LinkDemand& d = demands[l];
    for (const auto& [bits, name] :
         {std::pair<double, const char*>{d.hp_bits, "HP"},
          std::pair<double, const char*>{d.lp_bits, "LP"}}) {
      if (!std::isfinite(bits)) {
        sink.add(l, -1, std::string(name) + " demand is not finite (" +
                            fmt(bits) + ")");
      } else if (bits < 0.0) {
        sink.add(l, -1, std::string(name) + " demand is negative (" +
                            fmt(bits) + " bits)");
      } else if (bits > kMaxDemandBits) {
        sink.add(l, -1, std::string(name) + " demand " + fmt(bits) +
                            " bits exceeds the sanity cap of " +
                            fmt(kMaxDemandBits) +
                            " (unit mixup?)");
      } else {
        total_demand += bits;
      }
    }
  }
  if (checked_links > 0 && total_demand == 0.0 && report.ok()) {
    sink.add(-1, -1,
             "all demands are zero: nothing to schedule (unit mixup?)");
  }

  // --- Channel model: gains finite and non-negative, noise positive. -----
  for (int l = 0; l < num_links; ++l) {
    const double rho = net.noise(l);
    if (!std::isfinite(rho) || rho <= 0.0)
      sink.add(l, -1,
               "noise power must be finite and positive, got " + fmt(rho) +
                   " W");
    for (int k = 0; k < num_channels; ++k) {
      const double g = net.direct_gain(l, k);
      if (bad_gain(g))
        sink.add(l, k, "direct gain is " + fmt(g) +
                           " (must be finite and non-negative)");
    }
  }
  for (int from = 0; from < num_links; ++from) {
    for (int to = 0; to < num_links; ++to) {
      if (from == to) continue;
      for (int k = 0; k < num_channels; ++k) {
        const double g = net.cross_gain(from, to, k);
        if (bad_gain(g))
          sink.add(to, k, "cross gain from link " + std::to_string(from) +
                              " is " + fmt(g) +
                              " (must be finite and non-negative)");
      }
    }
  }

  return report;
}

namespace {

[[nodiscard]] common::Status spec_error(int line, const std::string& what) {
  return common::Status::Error(
      common::ErrorCode::kInvalidInput,
      "instance spec line " + std::to_string(line) + ": " + what);
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front())))
    s.remove_prefix(1);
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back())))
    s.remove_suffix(1);
  return s;
}

/// strtod over the *whole* token: trailing garbage is an error, not a
/// silently dropped suffix.
bool parse_double_token(std::string_view token, double& out) {
  const std::string buf(token);  // strtod needs NUL termination
  if (buf.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size() || errno == ERANGE) return false;
  out = v;
  return true;
}

bool parse_int_token(std::string_view token, long long& out) {
  const std::string buf(token);
  if (buf.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(buf.c_str(), &end, 10);
  if (end != buf.c_str() + buf.size() || errno == ERANGE) return false;
  out = v;
  return true;
}

bool parse_uint_token(std::string_view token, unsigned long long& out) {
  const std::string buf(token);
  if (buf.empty() || buf[0] == '-') return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(buf.c_str(), &end, 10);
  if (end != buf.c_str() + buf.size() || errno == ERANGE) return false;
  out = v;
  return true;
}

}  // namespace

[[nodiscard]] common::Expected<InstanceSpec> parse_instance_spec(
    std::string_view text) {
  InstanceSpec spec;
  int line_no = 0;
  while (!text.empty()) {
    ++line_no;
    const std::size_t eol = text.find('\n');
    std::string_view line = text.substr(0, eol);
    text.remove_prefix(eol == std::string_view::npos ? text.size() : eol + 1);

    const std::size_t hash = line.find('#');
    if (hash != std::string_view::npos) line = line.substr(0, hash);
    line = trim(line);
    if (line.empty()) continue;

    const std::size_t eq = line.find('=');
    if (eq == std::string_view::npos)
      return spec_error(line_no, "expected 'key = value', got '" +
                                     std::string(line) + "'");
    const std::string key(trim(line.substr(0, eq)));
    const std::string_view value = trim(line.substr(eq + 1));
    if (key.empty()) return spec_error(line_no, "empty key");
    if (value.empty())
      return spec_error(line_no, "empty value for '" + key + "'");

    auto int_in_range = [&](const char* name, long long lo, long long hi,
                            int& out) -> common::Status {
      long long v = 0;
      if (!parse_int_token(value, v))
        return spec_error(line_no, std::string(name) +
                                       ": expected an integer, got '" +
                                       std::string(value) + "'");
      if (v < lo || v > hi)
        return spec_error(line_no, std::string(name) + " = " +
                                       std::to_string(v) +
                                       " out of range [" + std::to_string(lo) +
                                       ", " + std::to_string(hi) + "]");
      out = static_cast<int>(v);
      return common::Status::Ok();
    };
    auto positive_double = [&](const char* name,
                               double& out) -> common::Status {
      double v = 0.0;
      if (!parse_double_token(value, v))
        return spec_error(line_no, std::string(name) +
                                       ": expected a number, got '" +
                                       std::string(value) + "'");
      if (!std::isfinite(v) || v <= 0.0)
        return spec_error(line_no, std::string(name) +
                                       " must be finite and positive, got " +
                                       std::string(value));
      out = v;
      return common::Status::Ok();
    };

    common::Status st = common::Status::Ok();
    if (key == "links") {
      st = int_in_range("links", 1, 4096, spec.links);
    } else if (key == "channels") {
      st = int_in_range("channels", 1, 1024, spec.channels);
    } else if (key == "levels") {
      st = int_in_range("levels", 1, 64, spec.levels);
    } else if (key == "gamma_scale" || key == "gamma-scale") {
      st = positive_double("gamma_scale", spec.gamma_scale);
    } else if (key == "demand_scale" || key == "demand-scale") {
      st = positive_double("demand_scale", spec.demand_scale);
    } else if (key == "seed") {
      unsigned long long v = 0;
      if (!parse_uint_token(value, v))
        st = spec_error(line_no, "seed: expected a non-negative integer, "
                                 "got '" + std::string(value) + "'");
      else
        spec.seed = static_cast<std::uint64_t>(v);
    } else {
      st = spec_error(line_no, "unknown key '" + key + "'");
    }
    if (!st.ok()) return st;
  }
  return spec;
}

}  // namespace mmwave::check

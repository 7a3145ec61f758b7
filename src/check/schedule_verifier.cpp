#include "check/schedule_verifier.h"

#include <limits>
#include <map>
#include <set>
#include <sstream>

namespace mmwave::check {

const char* to_string(ViolationKind kind) {
  switch (kind) {
    case ViolationKind::LinkOutOfRange: return "LinkOutOfRange";
    case ViolationKind::ChannelOutOfRange: return "ChannelOutOfRange";
    case ViolationKind::RateLevelOutOfRange: return "RateLevelOutOfRange";
    case ViolationKind::PowerOutOfRange: return "PowerOutOfRange";
    case ViolationKind::DuplicateLink: return "DuplicateLink";
    case ViolationKind::DuplicateLayer: return "DuplicateLayer";
    case ViolationKind::LayerSplitChannel: return "LayerSplitChannel";
    case ViolationKind::HalfDuplex: return "HalfDuplex";
    case ViolationKind::LinkPowerCap: return "LinkPowerCap";
    case ViolationKind::SinrBelowThreshold: return "SinrBelowThreshold";
    case ViolationKind::NegativeDuration: return "NegativeDuration";
    case ViolationKind::DemandShortfall: return "DemandShortfall";
  }
  return "Unknown";
}

std::string Violation::to_string() const {
  std::ostringstream ss;
  ss << check::to_string(kind);
  if (link >= 0) ss << " link=" << link;
  if (channel >= 0) ss << " channel=" << channel;
  ss << ": " << detail;
  return ss.str();
}

std::string VerifyReport::to_string() const {
  if (ok()) return "ok";
  std::ostringstream ss;
  ss << violations.size() << " violation(s)";
  for (const Violation& v : violations) ss << "\n  " << v.to_string();
  return ss.str();
}

namespace {

/// Relative slack on SINR thresholds (absorbs solver tolerance dust).
constexpr double kSinrRelSlack = 1e-6;
/// Relative slack on the Pmax cap.
constexpr double kPowerRelSlack = 1e-9;
/// Relative slack on timeline demand coverage.
constexpr double kDemandRelSlack = 1e-6;

Violation make(ViolationKind kind, int link, int channel, double measured,
               double limit, std::string detail) {
  Violation v;
  v.kind = kind;
  v.link = link;
  v.channel = channel;
  v.measured = measured;
  v.limit = limit;
  v.detail = std::move(detail);
  return v;
}

std::string describe(const char* what, double measured, double limit) {
  std::ostringstream ss;
  ss << what << " (" << measured << " vs limit " << limit << ")";
  return ss.str();
}

}  // namespace

VerifyReport ScheduleVerifier::verify(const sched::Schedule& schedule) const {
  VerifyReport report;
  const double pmax = net_.params().p_max_watts;
  const double pmax_slack = pmax * (1.0 + kPowerRelSlack);

  // ---- Per-transmission range checks ------------------------------------
  // Transmissions with out-of-range indices are excluded from the
  // cross-checks below (they would index out of bounds) but still reported.
  std::vector<const sched::Transmission*> valid;
  for (const sched::Transmission& tx : schedule.transmissions()) {
    bool in_range = true;
    if (tx.link < 0 || tx.link >= net_.num_links()) {
      report.violations.push_back(make(
          ViolationKind::LinkOutOfRange, tx.link, tx.channel, tx.link,
          net_.num_links(), describe("link index", tx.link, net_.num_links())));
      in_range = false;
    }
    if (tx.channel < 0 || tx.channel >= net_.num_channels()) {
      report.violations.push_back(
          make(ViolationKind::ChannelOutOfRange, tx.link, tx.channel,
               tx.channel, net_.num_channels(),
               describe("channel index", tx.channel, net_.num_channels())));
      in_range = false;
    }
    if (tx.rate_level < 0 || tx.rate_level >= net_.num_rate_levels()) {
      report.violations.push_back(
          make(ViolationKind::RateLevelOutOfRange, tx.link, tx.channel,
               tx.rate_level, net_.num_rate_levels(),
               describe("rate level", tx.rate_level, net_.num_rate_levels())));
      in_range = false;
    }
    // A power violation is reported but does not exclude the transmission
    // from the cross-checks below — only un-indexable ones must be skipped.
    if (tx.power_watts < -pmax * kPowerRelSlack ||
        tx.power_watts > pmax_slack) {
      report.violations.push_back(
          make(ViolationKind::PowerOutOfRange, tx.link, tx.channel,
               tx.power_watts, pmax,
               describe("transmit power", tx.power_watts, pmax)));
    }
    if (in_range) valid.push_back(&tx);
  }

  // ---- Constraint (30) / layer-split multiplicity -----------------------
  std::set<int> seen_links;
  std::set<std::pair<int, int>> seen_link_layer;
  std::set<std::pair<int, int>> seen_link_channel;
  for (const sched::Transmission* tx : valid) {
    if (options_.allow_layer_split) {
      if (!seen_link_layer.insert({tx->link, static_cast<int>(tx->layer)})
               .second) {
        report.violations.push_back(make(
            ViolationKind::DuplicateLayer, tx->link, tx->channel, 0, 0,
            "same (link, layer) scheduled twice"));
      }
      if (!seen_link_channel.insert({tx->link, tx->channel}).second) {
        report.violations.push_back(make(
            ViolationKind::LayerSplitChannel, tx->link, tx->channel, 0, 0,
            "layer-split layers must ride distinct channels"));
      }
    } else if (!seen_links.insert(tx->link).second) {
      report.violations.push_back(
          make(ViolationKind::DuplicateLink, tx->link, tx->channel, 0, 0,
               "link scheduled twice; constraint (30) allows one "
               "(layer, rate, channel) choice per link"));
    }
  }

  // ---- Constraints (31)-(32): half-duplex nodes -------------------------
  std::map<int, int> node_owner;  // node -> first link claiming it
  for (const sched::Transmission* tx : valid) {
    const net::Link& link = net_.link(tx->link);
    for (int node : {link.tx_node, link.rx_node}) {
      auto [it, inserted] = node_owner.try_emplace(node, tx->link);
      if (!inserted && it->second != tx->link) {
        std::ostringstream ss;
        ss << "node " << node << " used by links " << it->second << " and "
           << tx->link;
        report.violations.push_back(make(ViolationKind::HalfDuplex, tx->link,
                                         tx->channel, node, 1, ss.str()));
      }
    }
  }

  // ---- Per-link total power cap -----------------------------------------
  std::map<int, double> link_power;
  for (const sched::Transmission* tx : valid)
    link_power[tx->link] += tx->power_watts;
  for (const auto& [l, p] : link_power) {
    if (p > pmax_slack) {
      report.violations.push_back(
          make(ViolationKind::LinkPowerCap, l, -1, p, pmax,
               describe("summed link power", p, pmax)));
    }
  }

  // ---- Constraint (3): co-channel SINR, recomputed from raw gains -------
  std::map<int, std::vector<const sched::Transmission*>> by_channel;
  for (const sched::Transmission* tx : valid) by_channel[tx->channel].push_back(tx);

  for (const auto& [k, txs] : by_channel) {
    for (const sched::Transmission* rx : txs) {
      // Interference at rx's receiver: noise plus every co-channel
      // transmitter's power through its cross gain into this receiver.
      double interference = net_.noise(rx->link);
      for (const sched::Transmission* other : txs) {
        if (other == rx) continue;
        interference +=
            net_.cross_gain(other->link, rx->link, k) * other->power_watts;
      }
      const double signal = net_.direct_gain(rx->link, k) * rx->power_watts;
      const double sinr =
          interference > 0.0
              ? signal / interference
              : (signal > 0.0 ? std::numeric_limits<double>::infinity() : 0.0);
      const double gamma = net_.rate_level(rx->rate_level).sinr_threshold;
      if (sinr < gamma * (1.0 - kSinrRelSlack)) {
        std::ostringstream ss;
        ss << "SINR " << sinr << " below gamma^q " << gamma << " at level "
           << rx->rate_level;
        report.violations.push_back(make(ViolationKind::SinrBelowThreshold,
                                         rx->link, k, sinr, gamma, ss.str()));
      }
    }
  }

  return report;
}

VerifyReport ScheduleVerifier::verify_timeline(
    const std::vector<sched::TimedSchedule>& timeline,
    const std::vector<video::LinkDemand>& demands,
    const std::vector<int>& unserved_links) const {
  VerifyReport report;
  std::vector<double> hp_bits(net_.num_links(), 0.0);
  std::vector<double> lp_bits(net_.num_links(), 0.0);
  const double slot = net_.params().slot_seconds;

  for (std::size_t s = 0; s < timeline.size(); ++s) {
    const sched::TimedSchedule& ts = timeline[s];
    if (ts.slots < 0.0) {
      std::ostringstream ss;
      ss << "schedule " << s << " has negative duration " << ts.slots;
      report.violations.push_back(
          make(ViolationKind::NegativeDuration, -1, -1, ts.slots, 0.0,
               ss.str()));
    }
    VerifyReport one = verify(ts.schedule);
    for (Violation& v : one.violations) {
      v.detail = "schedule " + std::to_string(s) + ": " + v.detail;
      report.violations.push_back(std::move(v));
    }
    for (const sched::Transmission& tx : ts.schedule.transmissions()) {
      if (tx.link < 0 || tx.link >= net_.num_links()) continue;
      if (tx.rate_level < 0 || tx.rate_level >= net_.num_rate_levels())
        continue;
      const double bits =
          net_.rate_level(tx.rate_level).rate_bps * slot * ts.slots;
      (tx.layer == net::Layer::Hp ? hp_bits : lp_bits)[tx.link] += bits;
    }
  }

  const std::set<int> exempt(unserved_links.begin(), unserved_links.end());
  for (int l = 0; l < net_.num_links() &&
                  l < static_cast<int>(demands.size());
       ++l) {
    if (exempt.count(l)) continue;
    struct LayerCase {
      const char* name;
      double delivered;
      double demanded;
    };
    for (const LayerCase& c :
         {LayerCase{"HP", hp_bits[l], demands[l].hp_bits},
          LayerCase{"LP", lp_bits[l], demands[l].lp_bits}}) {
      if (c.delivered < c.demanded * (1.0 - kDemandRelSlack)) {
        std::ostringstream ss;
        ss << c.name << " coverage shortfall: delivered " << c.delivered
           << " of " << c.demanded << " bits";
        report.violations.push_back(make(ViolationKind::DemandShortfall, l, -1,
                                         c.delivered, c.demanded, ss.str()));
      }
    }
  }
  return report;
}

}  // namespace mmwave::check

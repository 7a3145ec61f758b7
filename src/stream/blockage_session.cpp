#include "stream/blockage_session.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <map>
#include <memory>

#include "common/fault_injection.h"
#include "mmwave/power_control.h"

namespace mmwave::stream {
namespace {

/// Drops transmissions whose SINR no longer clears their rate level on the
/// (blocked) execution network.  Surviving members' SINR is evaluated with
/// the *full* schedule's interference — failed transmitters keep radiating,
/// they just deliver nothing.
sched::Schedule degrade_schedule(const net::Network& exec_net,
                                 const sched::Schedule& schedule,
                                 int& num_dropped) {
  std::map<int, std::vector<const sched::Transmission*>> by_channel;
  for (const sched::Transmission& tx : schedule.transmissions())
    by_channel[tx.channel].push_back(&tx);

  sched::Schedule degraded;
  for (const auto& [k, txs] : by_channel) {
    std::vector<int> links;
    std::vector<double> powers;
    for (const auto* tx : txs) {
      links.push_back(tx->link);
      powers.push_back(tx->power_watts);
    }
    const std::vector<double> sinr =
        net::achieved_sinr(exec_net, k, links, powers);
    for (std::size_t i = 0; i < txs.size(); ++i) {
      const double threshold =
          exec_net.rate_level(txs[i]->rate_level).sinr_threshold;
      if (sinr[i] >= threshold * (1.0 - 1e-9)) {
        degraded.add(*txs[i]);
      } else {
        ++num_dropped;
      }
    }
  }
  return degraded;
}

void append_json(std::string& out, const char* key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  out += '"';
  out += key;
  out += "\":";
  out += buf;
}

void append_json(std::string& out, const char* key, int value) {
  out += '"';
  out += key;
  out += "\":";
  out += std::to_string(value);
}

void append_json(std::string& out, const char* key, bool value) {
  out += '"';
  out += key;
  out += "\":";
  out += value ? "true" : "false";
}

}  // namespace

std::uint64_t blockage_session_fingerprint(const BlockageSessionConfig& config,
                                           int num_links, std::uint64_t seed) {
  std::string bytes = "blockage-session|";
  char buf[128];
  std::snprintf(buf, sizeof(buf), "%d|%d|%.17g|", num_links,
                config.session.num_gops, config.session.demand_scale);
  bytes += buf;
  std::snprintf(buf, sizeof(buf), "%.17g|%.17g|", config.session.video.fps,
                config.session.video.mean_bitrate_bps);
  bytes += buf;
  bytes += config.session.video.gop_pattern;
  std::snprintf(buf, sizeof(buf), "|%.17g|%.17g|%.17g|%.17g|%d|%" PRIu64,
                config.blockage.p_block, config.blockage.p_recover,
                config.blockage.attenuation, config.blockage.initial_blocked,
                config.reschedule_each_period ? 1 : 0, seed);
  bytes += buf;
  // The buffer model and demand policy shape the period stream (drain-risk
  // changes demands; thresholds change the persisted buffer trajectory), so
  // they are session-defining: a cursor saved under one policy or buffer
  // config can never resume a session running another.
  bytes += '|';
  bytes += config.demand_policy != nullptr ? config.demand_policy->name()
                                           : "blind";
  std::snprintf(buf, sizeof(buf), "|%.17g|%.17g|%.17g|%.17g|%.17g",
                config.buffer.startup_seconds, config.buffer.rebuffer_seconds,
                config.buffer.target_seconds, config.buffer.boost_gain,
                config.buffer.yield_fraction);
  bytes += buf;
  return core::fnv1a64(bytes);
}

std::string BlockageSessionMetrics::to_json_line() const {
  std::string out = "{\"type\":\"session\",";
  append_json(out, "gops", static_cast<int>(base.gops.size()));
  out += ',';
  append_json(out, "start_gop", start_gop);
  out += ',';
  append_json(out, "completed", completed);
  out += ',';
  append_json(out, "resume_rejected", resume_rejected);
  out += ',';
  append_json(out, "on_time_ratio", base.on_time_ratio);
  out += ',';
  append_json(out, "total_stall_slots", base.total_stall_slots);
  out += ',';
  append_json(out, "mean_psnr_db", base.mean_psnr_db);
  out += ',';
  append_json(out, "all_served", base.all_served);
  out += ',';
  append_json(out, "mean_blocked_fraction", mean_blocked_fraction);
  out += ',';
  append_json(out, "invalidated_periods", invalidated_periods);
  out += ',';
  append_json(out, "exec_transmissions_dropped", exec_transmissions_dropped);
  out += ',';
  append_json(out, "stall_seconds", stall_seconds);
  out += ',';
  append_json(out, "rebuffer_events", rebuffer_events);
  out += ',';
  append_json(out, "layer_gops_offered", layer_gops_offered);
  out += ',';
  append_json(out, "layer_gops_delivered", layer_gops_delivered);
  out += ',';
  append_json(out, "layer_delivery_ratio", layer_delivery_ratio);
  out += ',';
  char digest[32];
  std::snprintf(digest, sizeof(digest), "0x%016" PRIx64, plan_digest_chain);
  out += "\"plan_digest_chain\":\"";
  out += digest;
  out += "\"}";
  return out;
}

std::string period_json_line(const core::StreamCursor& cursor) {
  core::StreamGopRecord rec;
  if (!cursor.gops.empty()) rec = cursor.gops.back();
  int blocked_links = 0;
  for (int b : cursor.blocked) blocked_links += b != 0 ? 1 : 0;
  double occupancy_sum = 0.0, occupancy_min = 0.0, stall_sum = 0.0;
  int rebuffer_sum = 0, playing_links = 0;
  for (std::size_t l = 0; l < cursor.buffers.size(); ++l) {
    const core::StreamBufferState& b = cursor.buffers[l];
    occupancy_sum += b.occupancy_seconds;
    occupancy_min =
        l == 0 ? b.occupancy_seconds
               : std::min(occupancy_min, b.occupancy_seconds);
    stall_sum += b.stall_seconds;
    rebuffer_sum += b.rebuffer_events;
    playing_links += (b.flags & 1) != 0 ? 1 : 0;
  }
  std::string out = "{\"type\":\"gop\",";
  append_json(out, "gop", rec.gop);
  out += ',';
  append_json(out, "demand_bits", rec.demand_bits);
  out += ',';
  append_json(out, "schedule_slots", rec.schedule_slots);
  out += ',';
  append_json(out, "budget_slots", rec.budget_slots);
  out += ',';
  append_json(out, "on_time", rec.on_time);
  out += ',';
  append_json(out, "stall_slots", rec.stall_slots);
  out += ',';
  append_json(out, "blocked_links", blocked_links);
  out += ',';
  append_json(out, "buffer_seconds", occupancy_sum);
  out += ',';
  append_json(out, "buffer_min_seconds", occupancy_min);
  out += ',';
  append_json(out, "stall_seconds", stall_sum);
  out += ',';
  append_json(out, "rebuffer_events", rebuffer_sum);
  out += ',';
  append_json(out, "playing_links", playing_links);
  out += ',';
  char digest[32];
  std::snprintf(digest, sizeof(digest), "0x%016" PRIx64, cursor.plan_digest);
  out += "\"plan_digest\":\"";
  out += digest;
  out += "\"}";
  return out;
}

BlockageSessionMetrics run_blockage_session(
    const net::ChannelModel& base_model, const net::NetworkParams& params,
    const BlockageSessionConfig& config, const Scheduler& scheduler,
    common::Rng& rng, SolverContext* solver_context,
    const BlockageRunControl* control) {
  BlockageSessionMetrics out;
  const int num_links = params.num_links;
  const SessionConfig& scfg = config.session;
  const double gop_seconds =
      static_cast<double>(scfg.video.gop_pattern.size()) / scfg.video.fps;

  // Clear-air network for oblivious scheduling.
  std::vector<double> ones(num_links, 1.0);
  net::Network clear_net(
      params, std::make_unique<net::RxScaledChannelModel>(&base_model, ones));
  const double budget_slots = gop_seconds / params.slot_seconds;

  // Demand streams (same construction as run_session).
  std::vector<std::vector<video::GopDemand>> gop_demands;
  for (int l = 0; l < num_links; ++l) {
    common::Rng stream = rng.fork(static_cast<std::uint64_t>(l));
    const video::VideoTrace trace = video::VideoTrace::generate(
        scfg.video,
        scfg.num_gops * static_cast<int>(scfg.video.gop_pattern.size()),
        stream);
    gop_demands.push_back(video::per_gop_demands(trace, scfg.scalable));
  }

  common::Rng blockage_rng = rng.fork(0xB10C);
  net::BlockageProcess process(num_links, config.blockage, blockage_rng);

  // Client buffers are always tracked; the policy decides whether their
  // state feeds back into the demands (null = blind baseline: pure
  // observation, schedules bit-identical to pre-buffer sessions).
  std::vector<ClientBuffer> buffers(num_links, ClientBuffer(config.buffer));
  const DemandPolicy* policy = config.demand_policy;
  // (GOP, layer) pairs with nonzero nominal demand, over scored periods.
  int layer_offered = 0;

  double carryover_stall = 0.0;
  std::vector<double> delivered_bits(num_links, 0.0);
  double blocked_fraction_sum = 0.0;

  // ---- Resume: validate the cursor, replay the Markov chain, restore the
  // ---- session state (scores, deliveries, buffers, digest chain).
  int start_gop = 0;
  const core::StreamCursor* resume =
      control != nullptr ? control->resume : nullptr;
  if (resume != nullptr) {
    bool usable =
        resume->next_gop >= 1 && resume->num_gops == scfg.num_gops &&
        resume->next_gop <= resume->num_gops &&
        static_cast<int>(resume->gops.size()) == resume->next_gop &&
        static_cast<int>(resume->delivered_bits.size()) == num_links &&
        static_cast<int>(resume->blocked.size()) == num_links &&
        resume->carryover_stall >= 0.0 &&
        resume->blocked_fraction_sum >= 0.0 &&
        !common::fault_fires(common::faults::kSessionCursorCorrupt);
    // Buffer state must be one self-consistent record per link; damaged
    // QoE counters must never be replayed as truth.
    if (usable) {
      if (static_cast<int>(resume->buffers.size()) != num_links ||
          common::fault_fires(common::faults::kSessionBufferCorrupt)) {
        usable = false;
      }
      for (const core::StreamBufferState& b : resume->buffers) {
        if (!(b.occupancy_seconds >= 0.0) || !(b.stall_seconds >= 0.0) ||
            b.rebuffer_events < 0 || b.flags < 0 || b.flags > 3 ||
            b.flags == 1 || b.hp_gops_delivered < 0 ||
            b.lp_gops_delivered < 0 ||
            b.hp_gops_delivered > resume->next_gop ||
            b.lp_gops_delivered > resume->next_gop) {
          usable = false;
        }
      }
    }
    if (usable && config.session_fingerprint != 0 &&
        resume->session_fingerprint != config.session_fingerprint) {
      usable = false;
    }
    if (usable) {
      // Advance the chain to the cursor's last executed period; it must
      // land on exactly the saved blockage bits, otherwise the cursor is
      // from a different seed or config and gets rejected.
      for (int g = 1; g < resume->next_gop; ++g)
        process.advance(blockage_rng);
      for (int l = 0; l < num_links && usable; ++l) {
        if ((process.blocked(l) ? 1 : 0) != resume->blocked[l]) usable = false;
      }
    }
    if (!usable) {
      // Fresh run from period 0.  fork() is pure, so re-forking rebuilds
      // the exact process a fresh session would have seen.
      out.resume_rejected = true;
      blockage_rng = rng.fork(0xB10C);
      process =
          net::BlockageProcess(num_links, config.blockage, blockage_rng);
    } else {
      start_gop = resume->next_gop;
      carryover_stall = resume->carryover_stall;
      blocked_fraction_sum = resume->blocked_fraction_sum;
      out.invalidated_periods = resume->invalidated_periods;
      out.exec_transmissions_dropped = resume->exec_transmissions_dropped;
      delivered_bits = resume->delivered_bits;
      for (int l = 0; l < num_links; ++l) {
        const core::StreamBufferState& b = resume->buffers[l];
        buffers[l].restore(b.occupancy_seconds, b.stall_seconds,
                           b.rebuffer_events, (b.flags & 1) != 0,
                           (b.flags & 2) != 0, b.hp_gops_delivered,
                           b.lp_gops_delivered);
      }
      // Replayed periods' offered-layer counts are reconstructed from the
      // deterministic demand streams (same expression as the live loop), so
      // the final layer_delivery_ratio equals the uninterrupted run's.
      for (int g = 0; g < resume->next_gop; ++g) {
        for (int l = 0; l < num_links; ++l) {
          if (gop_demands[l][g].hp_bits * scfg.demand_scale > 0.0)
            ++layer_offered;
          if (gop_demands[l][g].lp_bits * scfg.demand_scale > 0.0)
            ++layer_offered;
        }
      }
      for (const core::StreamGopRecord& r : resume->gops) {
        GopRecord rec;
        rec.gop = r.gop;
        rec.demand_bits = r.demand_bits;
        rec.schedule_slots = r.schedule_slots;
        rec.budget_slots = r.budget_slots;
        rec.on_time = r.on_time;
        rec.stall_slots = r.stall_slots;
        out.base.total_stall_slots += rec.stall_slots;
        out.base.gops.push_back(rec);
      }
      if (solver_context != nullptr)
        solver_context->plan_digest_chain = resume->plan_digest;
    }
  }
  out.start_gop = start_gop;

  for (int g = start_gop; g < scfg.num_gops; ++g) {
    if (g > 0) process.advance(blockage_rng);
    blocked_fraction_sum +=
        static_cast<double>(process.num_blocked()) / num_links;

    std::vector<double> scales(num_links);
    for (int l = 0; l < num_links; ++l) scales[l] = process.rx_attenuation(l);
    net::Network blocked_net(
        params,
        std::make_unique<net::RxScaledChannelModel>(&base_model, scales));

    std::vector<video::LinkDemand> demands(num_links);
    for (int l = 0; l < num_links; ++l) {
      demands[l].hp_bits = gop_demands[l][g].hp_bits * scfg.demand_scale;
      demands[l].lp_bits = gop_demands[l][g].lp_bits * scfg.demand_scale;
    }
    // The policy bids on behalf of the buffers: nominal demand is the GOP's
    // actual content (what playback consumes), shaped demand is what the
    // scheduler is asked for (boosted bids prefetch, yields free capacity).
    const std::vector<video::LinkDemand> nominal = demands;
    if (policy != nullptr) {
      std::vector<std::uint8_t> blocked_bits(num_links);
      for (int l = 0; l < num_links; ++l)
        blocked_bits[l] = process.blocked(l) ? 1 : 0;
      policy->shape(buffers, blocked_bits, gop_seconds, demands);
    }
    double total = 0.0;
    for (int l = 0; l < num_links; ++l) total += demands[l].total();

    const net::Network& plan_net =
        config.reschedule_each_period ? blocked_net : clear_net;
    SchedulerResult plan = scheduler(plan_net, demands);

    // Execution always happens on the blocked gains.
    int dropped_this_period = 0;
    std::vector<sched::TimedSchedule> executable;
    executable.reserve(plan.timeline.size());
    for (const auto& ts : plan.timeline) {
      executable.push_back(
          {degrade_schedule(blocked_net, ts.schedule, dropped_this_period),
           ts.slots});
    }
    if (dropped_this_period > 0) ++out.invalidated_periods;
    out.exec_transmissions_dropped += dropped_this_period;

    const auto exec =
        sched::execute_timeline(blocked_net, executable, demands, plan.order);

    GopRecord rec;
    rec.gop = g;
    rec.demand_bits = total;
    rec.schedule_slots = exec.total_slots;
    rec.budget_slots = budget_slots;
    const double finish = carryover_stall + exec.total_slots;
    rec.on_time = exec.all_demands_met && finish <= budget_slots + 1e-9;
    rec.stall_slots = std::max(0.0, finish - budget_slots);
    carryover_stall = rec.stall_slots;
    out.base.total_stall_slots += rec.stall_slots;
    if (!exec.all_demands_met || !plan.ok) out.base.all_served = false;
    for (int l = 0; l < num_links; ++l) {
      const double delivered =
          exec.hp_delivered_bits[l] + exec.lp_delivered_bits[l];
      delivered_bits[l] += delivered;
      // Fluid model: the GOP's content spans gop_seconds of video; delivered
      // bits map proportionally (a boosted bid that over-delivers prefetches
      // future seconds, f > 1).  A zero-demand GOP carries its seconds free.
      const double nominal_total = nominal[l].total();
      const double delivered_seconds =
          nominal_total > 0.0 ? gop_seconds * delivered / nominal_total
                              : gop_seconds;
      buffers[l].advance(delivered_seconds, gop_seconds);
      // A layer counts delivered when the delivery covered the smaller of
      // the nominal and shaped asks: a yielded layer served as asked and a
      // boosted layer that still covered its content both count.
      const bool hp_off = nominal[l].hp_bits > 0.0;
      const bool lp_off = nominal[l].lp_bits > 0.0;
      const double hp_need = std::min(nominal[l].hp_bits, demands[l].hp_bits);
      const double lp_need = std::min(nominal[l].lp_bits, demands[l].lp_bits);
      const bool hp_del = exec.hp_delivered_bits[l] >= hp_need * (1.0 - 1e-9);
      const bool lp_del = exec.lp_delivered_bits[l] >= lp_need * (1.0 - 1e-9);
      buffers[l].note_layers(hp_off, hp_del, lp_off, lp_del);
      layer_offered += (hp_off ? 1 : 0) + (lp_off ? 1 : 0);
    }
    out.base.gops.push_back(rec);

    if (control != nullptr && control->on_period) {
      // Surface the cursor describing this GOP boundary; the callback can
      // persist it (crash-recovery point) and/or stop the run (simulated
      // crash — the chaos-soak harness kills sessions exactly here).
      core::StreamCursor cur;
      cur.next_gop = g + 1;
      cur.num_gops = scfg.num_gops;
      cur.session_fingerprint = config.session_fingerprint;
      cur.carryover_stall = carryover_stall;
      cur.blocked_fraction_sum = blocked_fraction_sum;
      cur.invalidated_periods = out.invalidated_periods;
      cur.exec_transmissions_dropped = out.exec_transmissions_dropped;
      cur.delivered_bits = delivered_bits;
      cur.blocked.resize(num_links);
      for (int l = 0; l < num_links; ++l)
        cur.blocked[l] = process.blocked(l) ? 1 : 0;
      cur.buffers.resize(num_links);
      for (int l = 0; l < num_links; ++l) {
        core::StreamBufferState& b = cur.buffers[l];
        b.occupancy_seconds = buffers[l].occupancy_seconds();
        b.stall_seconds = buffers[l].stall_seconds();
        b.rebuffer_events = buffers[l].rebuffer_events();
        b.flags = (buffers[l].playing() ? 1 : 0) |
                  (buffers[l].started() ? 2 : 0);
        b.hp_gops_delivered = buffers[l].hp_gops_delivered();
        b.lp_gops_delivered = buffers[l].lp_gops_delivered();
      }
      if (solver_context != nullptr)
        cur.plan_digest = solver_context->plan_digest_chain;
      cur.gops.reserve(out.base.gops.size());
      for (const GopRecord& r : out.base.gops) {
        core::StreamGopRecord sr;
        sr.gop = r.gop;
        sr.demand_bits = r.demand_bits;
        sr.schedule_slots = r.schedule_slots;
        sr.budget_slots = r.budget_slots;
        sr.on_time = r.on_time;
        sr.stall_slots = r.stall_slots;
        cur.gops.push_back(sr);
      }
      if (!control->on_period(cur, g)) {
        out.completed = false;
        break;
      }
    }
  }

  int on_time = 0;
  for (const GopRecord& r : out.base.gops)
    if (r.on_time) ++on_time;
  out.base.on_time_ratio =
      out.base.gops.empty()
          ? 1.0
          : static_cast<double>(on_time) /
                static_cast<double>(out.base.gops.size());

  const double horizon_seconds = scfg.num_gops * gop_seconds;
  double psnr_sum = 0.0;
  for (int l = 0; l < num_links; ++l) {
    const double rate =
        delivered_bits[l] / horizon_seconds / scfg.demand_scale;
    psnr_sum += scfg.psnr.psnr(rate);
  }
  out.base.mean_psnr_db = num_links > 0 ? psnr_sum / num_links : 0.0;
  out.mean_blocked_fraction = blocked_fraction_sum / scfg.num_gops;
  for (const ClientBuffer& b : buffers) {
    out.stall_seconds += b.stall_seconds();
    out.rebuffer_events += b.rebuffer_events();
    out.layer_gops_delivered +=
        b.hp_gops_delivered() + b.lp_gops_delivered();
  }
  out.layer_gops_offered = layer_offered;
  out.layer_delivery_ratio =
      layer_offered > 0
          ? static_cast<double>(out.layer_gops_delivered) / layer_offered
          : 1.0;
  if (solver_context != nullptr)
    out.plan_digest_chain = solver_context->plan_digest_chain;
  return out;
}

}  // namespace mmwave::stream

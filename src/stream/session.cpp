#include "stream/session.h"

#include <algorithm>
#include <cstdio>
#include <string>

#include "baselines/baselines.h"
#include "core/checkpoint.h"
#include "core/column_generation.h"

namespace mmwave::stream {

namespace {

// Canonical byte string for a solved timeline: the schedule's content key
// (sorted transmissions, power excluded) plus the exact slot count.  Two
// solves that produce byte-identical plans hash equal; anything else — a
// different column, a different duration — does not.  The digest chain over
// these is the chaos-soak equality witness.
std::uint64_t timeline_digest(
    const std::vector<sched::TimedSchedule>& timeline) {
  std::string bytes;
  char buf[64];
  for (const sched::TimedSchedule& entry : timeline) {
    bytes += entry.schedule.key();
    std::snprintf(buf, sizeof(buf), "|%.17g;", entry.slots);
    bytes += buf;
  }
  return core::fnv1a64(bytes);
}

}  // namespace

Scheduler make_cg_scheduler(const CgSchedulerOptions& options) {
  return make_cg_scheduler(options, nullptr);
}

Scheduler make_cg_scheduler(const CgSchedulerOptions& options,
                            SolverContext* context) {
  return [options, context](const net::Network& net,
                            const std::vector<video::LinkDemand>& demands) {
    core::CgOptions cg;
    cg.pricing = options.heuristic_only
                     ? core::PricingMode::HeuristicOnly
                     : core::PricingMode::HeuristicThenExact;
    const auto result = core::solve_column_generation(net, demands, cg);
    if (context != nullptr) {
      // Fold this period's plan into the digest chain: a resumed session
      // replaying the same periods must reproduce the same chain.
      const std::uint64_t digest = timeline_digest(result.timeline);
      context->last_plan_digest = digest;
      char chain_bytes[40];
      std::snprintf(chain_bytes, sizeof(chain_bytes), "%016llx%016llx",
                    static_cast<unsigned long long>(context->plan_digest_chain),
                    static_cast<unsigned long long>(digest));
      context->plan_digest_chain = core::fnv1a64(chain_bytes);
      if (options.capture_checkpoint) {
        context->last_checkpoint = core::make_checkpoint(net, demands, result);
        context->last_checkpoint.pool.clear();
        context->last_checkpoint.pool_tau.clear();
        context->has_last_checkpoint = true;
      }
    }
    SchedulerResult out;
    out.timeline = result.timeline;
    out.order = sched::ExecutionOrder::CompletionAware;
    out.ok = !result.timeline.empty() || result.total_slots == 0.0;
    return out;
  };
}

Scheduler make_tdma_scheduler() {
  return [](const net::Network& net,
            const std::vector<video::LinkDemand>& demands) {
    const auto result = baselines::tdma(net, demands);
    return SchedulerResult{result.timeline, sched::ExecutionOrder::AsGiven,
                           result.served_all};
  };
}

Scheduler make_benchmark1_scheduler() {
  return [](const net::Network& net,
            const std::vector<video::LinkDemand>& demands) {
    const auto result = baselines::benchmark1(net, demands);
    return SchedulerResult{result.timeline, sched::ExecutionOrder::AsGiven,
                           result.served_all};
  };
}

Scheduler make_benchmark2_scheduler() {
  return [](const net::Network& net,
            const std::vector<video::LinkDemand>& demands) {
    const auto result = baselines::benchmark2(net, demands);
    return SchedulerResult{result.timeline, sched::ExecutionOrder::AsGiven,
                           result.served_all};
  };
}

SessionMetrics run_session(const net::Network& net,
                           const SessionConfig& config,
                           const Scheduler& scheduler, common::Rng& rng) {
  SessionMetrics metrics;
  const int num_links = net.num_links();
  const double gop_seconds =
      static_cast<double>(config.video.gop_pattern.size()) /
      config.video.fps;
  const double budget_slots = gop_seconds / net.params().slot_seconds;

  // Per-link trace streams: one long trace per link, consumed GOP by GOP.
  std::vector<video::VideoTrace> traces;
  std::vector<std::vector<video::GopDemand>> gop_demands;
  traces.reserve(num_links);
  for (int l = 0; l < num_links; ++l) {
    common::Rng stream = rng.fork(static_cast<std::uint64_t>(l));
    traces.push_back(video::VideoTrace::generate(
        config.video,
        config.num_gops * static_cast<int>(config.video.gop_pattern.size()),
        stream));
    gop_demands.push_back(
        video::per_gop_demands(traces.back(), config.scalable));
  }

  double carryover_stall = 0.0;
  std::vector<double> delivered_bits(num_links, 0.0);

  for (int g = 0; g < config.num_gops; ++g) {
    std::vector<video::LinkDemand> demands(num_links);
    double total = 0.0;
    for (int l = 0; l < num_links; ++l) {
      demands[l].hp_bits = gop_demands[l][g].hp_bits * config.demand_scale;
      demands[l].lp_bits = gop_demands[l][g].lp_bits * config.demand_scale;
      total += demands[l].total();
    }

    const SchedulerResult plan = scheduler(net, demands);
    const auto exec =
        sched::execute_timeline(net, plan.timeline, demands, plan.order);

    GopRecord rec;
    rec.gop = g;
    rec.demand_bits = total;
    rec.schedule_slots = exec.total_slots;
    rec.budget_slots = budget_slots;
    // The PNC starts this period late by whatever stall is carried over.
    const double finish = carryover_stall + exec.total_slots;
    rec.on_time = exec.all_demands_met && finish <= budget_slots + 1e-9;
    rec.stall_slots = std::max(0.0, finish - budget_slots);
    carryover_stall = rec.stall_slots;
    metrics.total_stall_slots += rec.stall_slots;
    if (!exec.all_demands_met || !plan.ok) metrics.all_served = false;
    for (int l = 0; l < num_links; ++l) {
      delivered_bits[l] +=
          exec.hp_delivered_bits[l] + exec.lp_delivered_bits[l];
    }
    metrics.gops.push_back(rec);
  }

  int on_time = 0;
  for (const GopRecord& r : metrics.gops)
    if (r.on_time) ++on_time;
  metrics.on_time_ratio =
      metrics.gops.empty()
          ? 1.0
          : static_cast<double>(on_time) /
                static_cast<double>(metrics.gops.size());

  // Session PSNR from each link's mean delivered rate (undo demo scaling so
  // the dB numbers refer to the real video bitrate).
  const double horizon_seconds = config.num_gops * gop_seconds;
  double psnr_sum = 0.0;
  for (int l = 0; l < num_links; ++l) {
    const double rate =
        delivered_bits[l] / horizon_seconds / config.demand_scale;
    psnr_sum += config.psnr.psnr(rate);
  }
  metrics.mean_psnr_db = num_links > 0 ? psnr_sum / num_links : 0.0;
  return metrics;
}

}  // namespace mmwave::stream

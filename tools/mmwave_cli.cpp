// mmwave_cli — command-line front end to the library.
//
//   mmwave_cli solve   [instance flags] [--csv=plan.csv] [--profile]
//                      [--warm-start=0|1] [--checkpoint=FILE] [--resume]
//       Solve one instance with column generation; print the solution and
//       optionally dump the (schedule, tau) plan as CSV.  --profile prints
//       the per-phase wall-clock breakdown (master solves, pivots,
//       warm-start hit rate, greedy/MILP pricing, the MILP's B&B nodes
//       and node-LP pivots); --warm-start=0 forces
//       cold two-phase master solves for A/B comparison.  --checkpoint
//       saves the solver state (column pool, duals, bounds) after the
//       solve; --resume additionally warm-starts from that file first
//       when its fingerprint matches the instance (a mismatched or
//       corrupt checkpoint degrades to a cold start, never an error).
//   mmwave_cli compare [instance flags]
//       Run CG, Benchmark 1, Benchmark 2 and TDMA on the same instance and
//       print the metric table.
//   mmwave_cli stream  [instance flags] [--gops=N] [--p-block=p]
//                      [--demand-policy=blind|drain-risk] [--buffer-*=s]
//                      [--checkpoint=FILE] [--resume] [--metrics-json]
//       Multi-GOP streaming session (optionally under Markov blockage),
//       with per-link client playout buffers and an optional drain-risk
//       demand-shaping policy (QoE: stall seconds, layer-delivery ratio).
//       Every period solves cold; --checkpoint saves the session cursor
//       after each period and --resume continues from it.  The periods
//       run without a deadline and take --pricing=heuristic|hybrid only.
//   mmwave_cli resolve --checkpoint=FILE [instance flags]
//                      [--block-links=0,3] [--block-atten=a] [--update]
//       Re-solve the (optionally perturbed) instance: blocked links
//       attenuate all paths into their receivers by --block-atten.  A
//       checkpoint of this very instance seeds CG with its verified
//       columns; any other checkpoint (a different blockage, an unreadable
//       file) means a cold solve.  --update rewrites the checkpoint with
//       the new state afterwards, so the next resolve under the same
//       blockage starts warm.
//   mmwave_cli check   [instance flags]
//       Solve with the certificate checkers enabled (CgOptions::verify) and
//       independently re-verify the emitted plan; exit non-zero on any
//       failed certificate.  This is the verifier leg of the pre-merge gate
//       (tools/run_analysis.sh).
//   mmwave_cli serve   [--requests=FILE|FIFO|-] [--out=FILE] [--workers=N]
//                      [--max-queue=N] [--state=PATH] [--io-retries=N]
//       Fleet daemon (fleet::Server): newline-delimited JSON requests in,
//       one record line per request out, admission order.  SIGTERM/SIGINT
//       drains gracefully: in-flight requests finish, the queue is
//       checkpointed under --state, and a restarted serve with the same
//       --state resumes without losing or repeating a request.
//
// Instance flags (shared): --links --channels --levels --gamma-scale
//   --seed --demand-scale --pricing=MODE[,RULE] where MODE is the CG
//   pricing mode (heuristic|hybrid|exact) and RULE the master-LP simplex
//   pricing rule (dantzig|steepest)
//   --instance=FILE (key=value spec, flags override) --deadline=SECONDS
//
// Exit status (DESIGN.md section 7):
//   0  success (solve/compare/stream completed; check passed)
//   1  verification failure (check) or unknown command
//   2  invalid input: a flag the command does not accept, a malformed flag
//      value, an unreadable/invalid --instance spec, or an instance
//      rejected by check::validate_instance
//   3  degraded solve: the anytime contract returned an incumbent (deadline,
//      stall, solver breakdown) instead of a certified answer
#include <fcntl.h>
#include <poll.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cinttypes>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>

#include "baselines/baselines.h"
#include "check/instance_validator.h"
#include "check/schedule_verifier.h"
#include "common/cli.h"
#include "common/table.h"
#include "core/checkpoint.h"
#include "core/checkpoint_log.h"
#include "core/column_generation.h"
#include "core/resolve.h"
#include "fleet/server.h"
#include "mmwave/blockage.h"
#include "sched/quantize.h"
#include "sched/timeline.h"
#include "stream/blockage_session.h"
#include "video/demand.h"

namespace {

using namespace mmwave;

constexpr int kExitOk = 0;
constexpr int kExitCheckFailed = 1;
constexpr int kExitInvalidInput = 2;
constexpr int kExitDegraded = 3;

struct InstanceFlags {
  int links = 10;
  int channels = 5;
  int levels = 5;
  double gamma_scale = 1.0;
  std::uint64_t seed = 1;
  double demand_scale = 1e-3;
  double deadline_sec = 0.0;
  core::PricingMode pricing = core::PricingMode::HeuristicThenExact;
  lp::PricingRule lp_pricing = lp::PricingRule::kDantzig;
};

/// Strict instance-flag parsing: a malformed value ("--links=abc",
/// "--channels=-3", an unreadable --instance file) is a structured error
/// the caller prints once and exits kExitInvalidInput on — never a silent
/// zero that solves the wrong instance.  A `stream` session solves every
/// period without a deadline, with heuristic or hybrid pricing and the
/// default master-LP rule (stream::CgSchedulerOptions), so for it --deadline
/// stays unread (reject_unused_arguments names it) and --pricing takes only
/// heuristic|hybrid.
[[nodiscard]] common::Expected<InstanceFlags> parse_instance(
    const common::CliFlags& flags, bool stream = false) {
  InstanceFlags f;
  if (flags.has("instance")) {
    const std::string path = flags.get_string("instance", "");
    std::ifstream in(path);
    if (!in) {
      return common::Status::Error(
          common::ErrorCode::kInvalidInput,
          "--instance: cannot open '" + path + "'");
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    const auto spec = check::parse_instance_spec(buf.str());
    if (!spec.ok()) return spec.status();
    f.links = spec.value().links;
    f.channels = spec.value().channels;
    f.levels = spec.value().levels;
    f.gamma_scale = spec.value().gamma_scale;
    f.seed = spec.value().seed;
    f.demand_scale = spec.value().demand_scale;
  }

  const auto links = flags.get_int_checked("links", f.links, 1, 4096);
  if (!links.ok()) return links.status();
  f.links = static_cast<int>(links.value());
  const auto channels = flags.get_int_checked("channels", f.channels, 1, 1024);
  if (!channels.ok()) return channels.status();
  f.channels = static_cast<int>(channels.value());
  const auto levels = flags.get_int_checked("levels", f.levels, 1, 64);
  if (!levels.ok()) return levels.status();
  f.levels = static_cast<int>(levels.value());
  const auto gamma = flags.get_double_checked("gamma-scale", f.gamma_scale,
                                              1e-9, 1e9);
  if (!gamma.ok()) return gamma.status();
  f.gamma_scale = gamma.value();
  const auto seed = flags.get_int_checked(
      "seed", static_cast<std::int64_t>(f.seed), 0);
  if (!seed.ok()) return seed.status();
  f.seed = static_cast<std::uint64_t>(seed.value());
  const auto dscale = flags.get_double_checked("demand-scale", f.demand_scale,
                                               1e-18, 1e18);
  if (!dscale.ok()) return dscale.status();
  f.demand_scale = dscale.value();
  if (!stream) {
    const auto deadline =
        flags.get_double_checked("deadline", f.deadline_sec, 0.0, 1e9);
    if (!deadline.ok()) return deadline.status();
    f.deadline_sec = deadline.value();
  }

  // --pricing takes a comma-separated token list mixing the CG pricing mode
  // (heuristic|hybrid|exact) with the master-LP simplex pricing rule
  // (dantzig|steepest), e.g. --pricing=hybrid,steepest.  Either kind may
  // appear alone; unknown tokens are a structured error.
  std::string pricing = flags.get_string("pricing", "hybrid");
  while (!pricing.empty()) {
    const std::size_t comma = pricing.find(',');
    const std::string token = pricing.substr(0, comma);
    pricing = comma == std::string::npos ? "" : pricing.substr(comma + 1);
    if (token == "heuristic") {
      f.pricing = core::PricingMode::HeuristicOnly;
    } else if (token == "hybrid") {
      f.pricing = core::PricingMode::HeuristicThenExact;
    } else if (stream) {
      return common::Status::Error(
          common::ErrorCode::kInvalidInput,
          "--pricing: stream takes heuristic|hybrid, got '" + token + "'");
    } else if (token == "exact") {
      f.pricing = core::PricingMode::ExactAlways;
    } else {
      const auto rule = lp::parse_pricing_rule(token);
      if (!rule.ok()) {
        return common::Status::Error(
            common::ErrorCode::kInvalidInput,
            "--pricing: expected heuristic|hybrid|exact and/or "
            "dantzig|steepest, got '" + token + "'");
      }
      f.lp_pricing = rule.value();
    }
  }
  return f;
}

/// Prints the anytime-contract outcome; returns the process exit status.
int report_solve_health(const core::CgResult& result) {
  if (result.stop_reason == core::CgStopReason::kInvalidInput) {
    std::fprintf(stderr, "error: %s\n", result.status.message().c_str());
    return kExitInvalidInput;
  }
  if (result.degraded) {
    std::printf("DEGRADED (%s): %s\n", core::to_string(result.stop_reason),
                result.status.message().c_str());
    return kExitDegraded;
  }
  return kExitOk;
}

/// Typo guard, called once a command has read every flag it accepts and
/// before it starts any work: a flag left unread is unknown to the command,
/// and so is any argument after the command name.  Prints the one-line
/// error and returns true, and the command then exits kExitInvalidInput.
bool reject_unused_arguments(const common::CliFlags& flags) {
  const common::Status unused = flags.check_unused(/*positional_taken=*/1);
  if (unused.ok()) return false;
  std::fprintf(stderr, "error: %s\n", unused.message().c_str());
  return true;
}

net::NetworkParams params_of(const InstanceFlags& f) {
  net::NetworkParams params;
  params.num_links = f.links;
  params.num_channels = f.channels;
  params.sinr_thresholds.resize(f.levels);
  for (int q = 0; q < f.levels; ++q)
    params.sinr_thresholds[q] = 0.1 * (q + 1) * f.gamma_scale;
  return params;
}

struct Instance {
  net::Network net;
  std::vector<video::LinkDemand> demands;
};

Instance build_instance(const InstanceFlags& f) {
  common::Rng rng(f.seed);
  net::Network net = net::Network::table_i(params_of(f), rng);
  video::DemandConfig dcfg;
  dcfg.demand_scale = f.demand_scale;
  common::Rng drng = rng.fork(0x5EED);
  auto demands = video::make_link_demands(f.links, dcfg, drng);
  return {std::move(net), std::move(demands)};
}

/// Prints whether a checkpoint seeded the solve or it ran cold.
void report_checkpoint_use(const core::ResolveResult& r) {
  if (r.used_checkpoint) {
    std::printf("checkpoint: same instance, %d columns seeded\n",
                r.cg.profile.warm_pool_columns);
  } else {
    std::printf("checkpoint: unusable, cold start (%s)\n",
                r.checkpoint_status.message().c_str());
  }
}

/// Saves the post-solve state to `path`; false (with a message) on failure.
bool write_checkpoint(const net::Network& net,
                      const std::vector<video::LinkDemand>& demands,
                      const core::CgResult& result, const std::string& path) {
  const core::CgCheckpoint ckpt = core::make_checkpoint(net, demands, result);
  const common::Status st = core::save_checkpoint(ckpt, path);
  if (!st.ok()) {
    std::fprintf(stderr, "error: checkpoint save: %s\n",
                 st.message().c_str());
    return false;
  }
  std::printf("checkpoint written to %s (%zu columns)\n", path.c_str(),
              ckpt.pool.size());
  return true;
}

int cmd_solve(const common::CliFlags& flags) {
  const auto parsed = parse_instance(flags);
  if (!parsed.ok()) {
    std::fprintf(stderr, "error: %s\n", parsed.status().message().c_str());
    return kExitInvalidInput;
  }
  const InstanceFlags f = parsed.value();
  const std::string ckpt_path = flags.get_string("checkpoint", "");
  const bool resume = flags.has("resume");
  if (resume && ckpt_path.empty()) {
    std::fprintf(stderr, "error: --resume requires --checkpoint=FILE\n");
    return kExitInvalidInput;
  }
  const auto warm_start = flags.get_int_checked("warm-start", 1, 0, 1);
  if (!warm_start.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 warm_start.status().message().c_str());
    return kExitInvalidInput;
  }
  const bool profile = flags.has("profile");
  const bool csv = flags.has("csv");
  const std::string csv_path = flags.get_string("csv", "plan.csv");
  if (reject_unused_arguments(flags)) return kExitInvalidInput;
  Instance inst = build_instance(f);
  core::CgOptions opts;
  opts.pricing = f.pricing;
  opts.lp_pricing = f.lp_pricing;
  opts.deadline_sec = f.deadline_sec;
  opts.warm_start_master = warm_start.value() != 0;
  core::CgResult result;
  if (resume) {
    const core::ResolveResult r =
        core::resolve_from_file(ckpt_path, inst.net, inst.demands, opts);
    report_checkpoint_use(r);
    result = r.cg;
  } else {
    result = core::solve_column_generation(inst.net, inst.demands, opts);
  }
  const int health = report_solve_health(result);
  if (health == kExitInvalidInput) return health;
  if (!ckpt_path.empty() &&
      !write_checkpoint(inst.net, inst.demands, result, ckpt_path)) {
    return kExitInvalidInput;
  }

  std::printf("instance: L=%d K=%d Q=%d gamma x%.1f seed=%llu\n", f.links,
              f.channels, f.levels, f.gamma_scale,
              static_cast<unsigned long long>(f.seed));
  std::printf("status:   %s after %d iterations, %zu schedules in plan "
              "(%.3f s, stop: %s)\n",
              result.converged ? "optimal (certified)" : "feasible",
              result.iterations, result.timeline.size(),
              result.solve_seconds, core::to_string(result.stop_reason));
  std::printf("slots:    %.2f", result.total_slots);
  if (!std::isnan(result.lower_bound))
    std::printf("   (Theorem-1 LB %.2f, gap %.2e)", result.lower_bound,
                result.gap());
  std::printf("\n");
  for (int l : result.unserved_links)
    std::printf("WARNING: link %d unservable (no reachable rate level)\n", l);

  const auto quant =
      sched::quantize_timeline(inst.net, result.timeline, inst.demands);
  std::printf("whole-slot plan: %.0f slots (quantization overhead %.3f%%)\n",
              quant.quantized_slots, 100.0 * quant.overhead());

  if (profile) {
    const core::CgProfile& p = result.profile;
    std::printf("profile:\n");
    std::printf("  master_solve    %8.3f ms  (%d solves, %lld pivots, "
                "%.1f pivots/solve)\n",
                1e3 * p.master_seconds, p.master_solves,
                static_cast<long long>(p.master_pivots),
                p.pivots_per_solve());
    std::printf("  warm starts     %d/%d master solves resumed "
                "(hit rate %.0f%%)\n",
                p.master_warm_hits, p.master_solves,
                100.0 * p.warm_hit_rate());
    std::printf("  lp engine       pricing=%s  %lld ftran, %lld btran, "
                "%d refactorizations\n",
                p.lp_pricing_rule, static_cast<long long>(p.lp_ftran_calls),
                static_cast<long long>(p.lp_btran_calls),
                p.lp_refactorizations);
    std::printf("  pricing_greedy  %8.3f ms  (%d calls)\n",
                1e3 * p.greedy_seconds, p.greedy_calls);
    std::printf("  pricing_milp    %8.3f ms  (%d calls)\n",
                1e3 * p.milp_seconds, p.milp_calls);
    std::printf("  milp skeleton   %8.3f ms (%lld pair power solves)\n",
                1e3 * p.milp_build_seconds,
                static_cast<long long>(p.milp_pair_power_solves));
    std::printf("  milp b&b        %lld nodes, %lld node-LP pivots\n",
                static_cast<long long>(p.milp_nodes),
                static_cast<long long>(p.milp_lp_pivots));
  }

  if (csv) {
    common::Table table(
        {"schedule", "slots", "link", "layer", "rate_level", "channel",
         "power_watts"});
    int idx = 0;
    for (const auto& ts : result.timeline) {
      for (const auto& tx : ts.schedule.transmissions()) {
        table.new_row()
            .add(idx)
            .add(ts.slots, 3)
            .add(tx.link)
            .add(net::to_string(tx.layer))
            .add(tx.rate_level)
            .add(tx.channel)
            .add(tx.power_watts, 5);
      }
      ++idx;
    }
    table.write_csv(csv_path);
    std::printf("plan written to %s\n", csv_path.c_str());
  }
  return health;
}

int cmd_compare(const common::CliFlags& flags) {
  const auto parsed = parse_instance(flags);
  if (!parsed.ok()) {
    std::fprintf(stderr, "error: %s\n", parsed.status().message().c_str());
    return kExitInvalidInput;
  }
  const InstanceFlags f = parsed.value();
  if (reject_unused_arguments(flags)) return kExitInvalidInput;
  Instance inst = build_instance(f);

  common::Table table({"algorithm", "total slots", "avg delay", "fairness",
                       "served"});
  auto row = [&](const char* name,
                 const std::vector<sched::TimedSchedule>& timeline,
                 bool served, sched::ExecutionOrder order) {
    const auto exec =
        sched::execute_timeline(inst.net, timeline, inst.demands, order);
    table.new_row()
        .add(name)
        .add(exec.total_slots, 1)
        .add(exec.average_delay(), 1)
        .add(exec.delay_fairness(), 4)
        .add(served && exec.all_demands_met ? "yes" : "NO");
  };

  core::CgOptions opts;
  opts.pricing = f.pricing;
  opts.lp_pricing = f.lp_pricing;
  opts.deadline_sec = f.deadline_sec;
  const auto cg = core::solve_column_generation(inst.net, inst.demands, opts);
  const int health = report_solve_health(cg);
  if (health == kExitInvalidInput) return health;
  row("column generation", cg.timeline, true,
      sched::ExecutionOrder::CompletionAware);
  const auto b1 = baselines::benchmark1(inst.net, inst.demands);
  row("benchmark 1", b1.timeline, b1.served_all,
      sched::ExecutionOrder::AsGiven);
  const auto b2 = baselines::benchmark2(inst.net, inst.demands);
  row("benchmark 2", b2.timeline, b2.served_all,
      sched::ExecutionOrder::AsGiven);
  const auto td = baselines::tdma(inst.net, inst.demands);
  row("TDMA", td.timeline, td.served_all, sched::ExecutionOrder::AsGiven);
  table.print(std::cout);
  return health;
}

int cmd_stream(const common::CliFlags& flags) {
  const auto parsed = parse_instance(flags, /*stream=*/true);
  if (!parsed.ok()) {
    std::fprintf(stderr, "error: %s\n", parsed.status().message().c_str());
    return kExitInvalidInput;
  }
  const InstanceFlags f = parsed.value();
  const auto gops_flag = flags.get_int_checked("gops", 8, 1, 1'000'000);
  const auto p_block_flag =
      flags.get_double_checked("p-block", 0.0, 0.0, 1.0);
  if (!gops_flag.ok() || !p_block_flag.ok()) {
    const common::Status& bad =
        gops_flag.ok() ? p_block_flag.status() : gops_flag.status();
    std::fprintf(stderr, "error: %s\n", bad.message().c_str());
    return kExitInvalidInput;
  }
  const int gops = static_cast<int>(gops_flag.value());
  const double p_block = p_block_flag.value();
  // Client-buffer model + demand-shaping policy (PR: QoE-centric sessions).
  const auto buf_startup =
      flags.get_double_checked("buffer-startup", 0.5, 0.0, 3600.0);
  const auto buf_rebuffer =
      flags.get_double_checked("buffer-rebuffer", 0.5, 0.0, 3600.0);
  const auto buf_target =
      flags.get_double_checked("buffer-target", 2.0, 0.0, 3600.0);
  const auto buf_boost =
      flags.get_double_checked("buffer-boost", 1.0, 0.0, 100.0);
  const auto buf_yield =
      flags.get_double_checked("buffer-yield", 0.5, 0.0, 0.99);
  for (const auto* checked :
       {&buf_startup, &buf_rebuffer, &buf_target, &buf_boost, &buf_yield}) {
    if (!checked->ok()) {
      std::fprintf(stderr, "error: %s\n",
                   checked->status().message().c_str());
      return kExitInvalidInput;
    }
  }
  const std::string policy_name =
      flags.get_string("demand-policy", "blind");
  const std::string ckpt_path = flags.get_string("checkpoint", "");
  const bool resume = flags.has("resume");
  const bool metrics_json = flags.has("metrics-json");
  if (resume && ckpt_path.empty()) {
    std::fprintf(stderr, "error: --resume requires --checkpoint=FILE\n");
    return kExitInvalidInput;
  }
  if (reject_unused_arguments(flags)) return kExitInvalidInput;

  common::Rng rng(f.seed);
  net::NetworkParams params = params_of(f);
  net::TableIChannelModel base(f.links, f.channels, params.noise_watts, rng);

  stream::BlockageSessionConfig cfg;
  cfg.session.num_gops = gops;
  cfg.session.demand_scale = f.demand_scale;
  cfg.blockage.p_block = p_block;
  cfg.blockage.attenuation = 0.05;
  cfg.buffer.startup_seconds = buf_startup.value();
  cfg.buffer.rebuffer_seconds = buf_rebuffer.value();
  cfg.buffer.target_seconds = buf_target.value();
  cfg.buffer.boost_gain = buf_boost.value();
  cfg.buffer.yield_fraction = buf_yield.value();
  const std::unique_ptr<stream::DemandPolicy> policy =
      stream::make_demand_policy(policy_name, cfg.buffer);
  if (policy == nullptr) {
    std::fprintf(stderr,
                 "error: --demand-policy: unknown policy '%s' "
                 "(expected blind|drain-risk)\n",
                 policy_name.c_str());
    return kExitInvalidInput;
  }
  cfg.demand_policy = policy.get();
  cfg.session_fingerprint =
      stream::blockage_session_fingerprint(cfg, f.links, f.seed);

  stream::SolverContext context;
  stream::CgSchedulerOptions sched_opts;
  sched_opts.heuristic_only = f.pricing == core::PricingMode::HeuristicOnly;
  sched_opts.capture_checkpoint = !ckpt_path.empty();

  // --checkpoint rewrites the session's checkpoint file atomically every
  // period; --resume replays the stream cursor saved there and continues
  // mid-session.  An unusable file degrades to a cold start, never into an
  // error.
  stream::BlockageRunControl control;
  core::StreamCursor resume_cursor;
  std::unique_ptr<core::CheckpointLog> log;
  if (!ckpt_path.empty()) {
    log = std::make_unique<core::CheckpointLog>(ckpt_path);
  }
  if (resume) {
    const core::CheckpointLogLoad loaded = log->open();
    if (!loaded.loaded) {
      std::printf("resume: no usable checkpoint at %s; cold start\n",
                  ckpt_path.c_str());
    } else if (!loaded.state.has_session) {
      std::printf("resume: checkpoint has no usable session cursor; "
                  "starting fresh\n");
    } else {
      resume_cursor = loaded.state.session;
      control.resume = &resume_cursor;
      std::printf("resume: cursor at gop %d/%d\n", resume_cursor.next_gop,
                  resume_cursor.num_gops);
    }
  }
  if (log != nullptr || metrics_json) {
    control.on_period = [&](const core::StreamCursor& cur, int gop) {
      if (metrics_json && !cur.gops.empty()) {
        std::printf("%s\n", stream::period_json_line(cur).c_str());
      }
      if (log != nullptr && context.has_last_checkpoint) {
        core::CgCheckpoint ckpt = context.last_checkpoint;
        ckpt.has_session = true;
        ckpt.session = cur;
        const common::Status st = log->save(ckpt);
        if (!st.ok()) {
          std::fprintf(stderr,
                       "warning: checkpoint save failed at gop %d: %s\n",
                       gop, st.message().c_str());
        }
      }
      return true;
    };
  }

  common::Rng session_rng = rng.fork(1);
  const auto metrics = stream::run_blockage_session(
      base, params, cfg, stream::make_cg_scheduler(sched_opts, &context),
      session_rng, &context, &control);

  if (metrics_json) std::printf("%s\n", metrics.to_json_line().c_str());
  if (metrics.resume_rejected)
    std::printf("resume: cursor rejected (stale or wrong session); "
                "ran fresh\n");
  std::printf("streaming %d GOPs (p_block=%.2f, policy=%s%s):\n", gops,
              p_block, policy->name(),
              metrics.start_gop > 0 ? ", resumed" : "");
  std::printf("  on-time GOPs:   %.1f%%\n", 100.0 * metrics.base.on_time_ratio);
  std::printf("  total stall:    %.1f slots\n",
              metrics.base.total_stall_slots);
  std::printf("  mean PSNR:      %.2f dB\n", metrics.base.mean_psnr_db);
  std::printf("  blocked frac:   %.3f\n", metrics.mean_blocked_fraction);
  std::printf("  all served:     %s\n",
              metrics.base.all_served ? "yes" : "NO");
  std::printf("  playback stall: %.2f s (%d rebuffer events)\n",
              metrics.stall_seconds, metrics.rebuffer_events);
  std::printf("  layer delivery: %.1f%% (%d/%d layer-GOPs)\n",
              100.0 * metrics.layer_delivery_ratio,
              metrics.layer_gops_delivered, metrics.layer_gops_offered);
  if (log != nullptr) {
    std::printf("  checkpoints:    %lld saves, %lld bytes\n",
                static_cast<long long>(log->stats().saves),
                static_cast<long long>(log->stats().full_bytes));
  }
  return 0;
}

int cmd_resolve(const common::CliFlags& flags) {
  const auto parsed = parse_instance(flags);
  if (!parsed.ok()) {
    std::fprintf(stderr, "error: %s\n", parsed.status().message().c_str());
    return kExitInvalidInput;
  }
  const InstanceFlags f = parsed.value();
  const std::string ckpt_path = flags.get_string("checkpoint", "");
  if (ckpt_path.empty()) {
    std::fprintf(stderr, "error: resolve requires --checkpoint=FILE\n");
    return kExitInvalidInput;
  }
  const auto atten =
      flags.get_double_checked("block-atten", 0.05, 0.0, 1.0);
  if (!atten.ok()) {
    std::fprintf(stderr, "error: %s\n", atten.status().message().c_str());
    return kExitInvalidInput;
  }
  const auto blocked_flag = flags.get_int_list_checked("block-links", {});
  if (!blocked_flag.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 blocked_flag.status().message().c_str());
    return kExitInvalidInput;
  }
  const std::vector<std::int64_t>& blocked = blocked_flag.value();
  for (std::int64_t l : blocked) {
    if (l < 0 || l >= f.links) {
      std::fprintf(stderr,
                   "error: --block-links: link %lld outside [0, %d)\n",
                   static_cast<long long>(l), f.links);
      return kExitInvalidInput;
    }
  }
  const bool update = flags.has("update");
  if (reject_unused_arguments(flags)) return kExitInvalidInput;

  // Same rng stream as build_instance, so an unperturbed resolve
  // fingerprints identically to `solve` on the same flags; the blockage is
  // layered on top as a receiver-side attenuation.
  common::Rng rng(f.seed);
  net::NetworkParams params = params_of(f);
  net::TableIChannelModel base(f.links, f.channels, params.noise_watts, rng);
  video::DemandConfig dcfg;
  dcfg.demand_scale = f.demand_scale;
  common::Rng drng = rng.fork(0x5EED);
  const auto demands = video::make_link_demands(f.links, dcfg, drng);
  std::vector<double> scales(f.links, 1.0);
  for (std::int64_t l : blocked) scales[l] = atten.value();
  net::Network net(params, std::make_unique<net::RxScaledChannelModel>(
                               &base, std::move(scales)));

  core::CgOptions opts;
  opts.pricing = f.pricing;
  opts.lp_pricing = f.lp_pricing;
  opts.deadline_sec = f.deadline_sec;
  const core::ResolveResult r =
      core::resolve_from_file(ckpt_path, net, demands, opts);
  report_checkpoint_use(r);
  const int health = report_solve_health(r.cg);
  if (health == kExitInvalidInput) return health;

  std::printf("instance: L=%d K=%d Q=%d gamma x%.1f seed=%llu "
              "(%zu blocked links, atten %.3g)\n",
              f.links, f.channels, f.levels, f.gamma_scale,
              static_cast<unsigned long long>(f.seed), blocked.size(),
              atten.value());
  std::printf("status:   %s after %d iterations, %zu schedules in plan "
              "(%.3f s, stop: %s)\n",
              r.cg.converged ? "optimal (certified)" : "feasible",
              r.cg.iterations, r.cg.timeline.size(), r.cg.solve_seconds,
              core::to_string(r.cg.stop_reason));
  std::printf("slots:    %.2f", r.cg.total_slots);
  if (!std::isnan(r.cg.lower_bound))
    std::printf("   (Theorem-1 LB %.2f, gap %.2e)", r.cg.lower_bound,
                r.cg.gap());
  std::printf("\n");
  for (int l : r.cg.unserved_links)
    std::printf("WARNING: link %d unservable (no reachable rate level)\n", l);

  if (update && !write_checkpoint(net, demands, r.cg, ckpt_path)) {
    return kExitInvalidInput;
  }
  return health;
}

int cmd_check(const common::CliFlags& flags) {
  const auto parsed = parse_instance(flags);
  if (!parsed.ok()) {
    std::fprintf(stderr, "error: %s\n", parsed.status().message().c_str());
    return kExitInvalidInput;
  }
  const InstanceFlags f = parsed.value();
  if (reject_unused_arguments(flags)) return kExitInvalidInput;
  Instance inst = build_instance(f);
  core::CgOptions opts;
  opts.pricing = f.pricing;
  opts.lp_pricing = f.lp_pricing;
  opts.deadline_sec = f.deadline_sec;
  opts.verify = true;
  const auto result =
      core::solve_column_generation(inst.net, inst.demands, opts);
  const int health = report_solve_health(result);
  if (health == kExitInvalidInput) return health;

  std::printf("instance: L=%d K=%d Q=%d gamma x%.1f seed=%llu\n", f.links,
              f.channels, f.levels, f.gamma_scale,
              static_cast<unsigned long long>(f.seed));
  std::printf("solve:    %s, %.2f slots, %d iterations (stop: %s)\n",
              result.converged ? "optimal (certified)" : "feasible",
              result.total_slots, result.iterations,
              core::to_string(result.stop_reason));

  int failures = 0;
  const auto& v = result.verification;
  std::printf("in-loop:  %d LP certificates, %d columns, %d bound checks\n",
              v.lp_certificates, v.columns_verified, v.bound_checks);
  for (const std::string& e : v.errors) {
    std::printf("FAIL: %s\n", e.c_str());
    ++failures;
  }

  // Belt and braces: re-verify the emitted plan with a fresh referee, the
  // way an operator auditing a dumped plan would.
  check::ScheduleVerifier referee(inst.net);
  std::vector<video::LinkDemand> audited = inst.demands;
  for (int l : result.unserved_links) audited[l] = {};
  const check::VerifyReport plan =
      referee.verify_timeline(result.timeline, audited);
  if (!plan.ok()) {
    std::printf("FAIL: plan re-verification: %s\n", plan.to_string().c_str());
    ++failures;
  }

  // Theorem-1 invariant over the recorded history: every valid lower bound
  // below every upper bound (the MP objective is monotone over iterations
  // only per column pool, but LB <= UB must hold pointwise).
  for (const auto& it : result.history) {
    if (std::isnan(it.lower_bound)) continue;
    if (it.lower_bound > it.master_objective * (1.0 + 1e-9) + 1e-9) {
      std::printf("FAIL: iteration %d: LB %.6f above UB %.6f\n", it.iteration,
                  it.lower_bound, it.master_objective);
      ++failures;
    }
  }

  if (failures == 0) {
    std::printf("verification PASSED (%zu schedules in plan)\n",
                result.timeline.size());
    return health;  // 0, or kExitDegraded for a verified-but-degraded plan
  }
  std::printf("verification FAILED: %d finding(s)\n", failures);
  return kExitCheckFailed;
}

// ---------------------------------------------------------------------------
// serve: the fleet daemon front end.
// ---------------------------------------------------------------------------

// Set by the signal handler, read by the serving thread and every worker
// (fleet::Server asks should_stop() from each): a lock-free atomic is both
// signal-safe and race-free.
std::atomic<bool> g_serve_stop{false};
static_assert(std::atomic<bool>::is_always_lock_free);
void serve_signal_handler(int) { g_serve_stop.store(true); }

/// Line reader over a poll()ed file descriptor: works for regular files,
/// pipes and FIFOs alike, and stays interruptible — a SIGTERM mid-wait
/// turns into a clean end-of-input so the server can drain.  A FIFO is
/// opened O_RDWR so writers may come and go without tearing an EOF; only
/// the signal ends a FIFO-fed serve.
struct FdLineReader {
  int fd = -1;
  std::string buffer;
  bool eof = false;

  bool next(std::string* out) {
    while (true) {
      const std::size_t newline = buffer.find('\n');
      if (newline != std::string::npos) {
        *out = buffer.substr(0, newline);
        buffer.erase(0, newline + 1);
        return true;
      }
      if (eof) {
        if (!buffer.empty()) {
          *out = buffer;
          buffer.clear();
          return true;
        }
        return false;
      }
      if (g_serve_stop.load()) return false;
      struct pollfd pfd;
      pfd.fd = fd;
      pfd.events = POLLIN;
      pfd.revents = 0;
      const int ready = ::poll(&pfd, 1, 100);
      if (g_serve_stop.load()) return false;
      if (ready <= 0) continue;
      char chunk[4096];
      const ssize_t n = ::read(fd, chunk, sizeof(chunk));
      if (n > 0) {
        buffer.append(chunk, static_cast<std::size_t>(n));
      } else if (n == 0) {
        eof = true;
      } else if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
        eof = true;
      }
    }
  }
};

int cmd_serve(const common::CliFlags& flags) {
  const auto workers = flags.get_int_checked("workers", 1, 1, 256);
  const auto max_queue = flags.get_int_checked("max-queue", 64, 1, 1 << 20);
  const auto io_retries = flags.get_int_checked("io-retries", 3, 0, 100);
  for (const common::Status& st :
       {workers.ok() ? common::Status::Ok() : workers.status(),
        max_queue.ok() ? common::Status::Ok() : max_queue.status(),
        io_retries.ok() ? common::Status::Ok() : io_retries.status()}) {
    if (!st.ok()) {
      std::fprintf(stderr, "error: %s\n", st.message().c_str());
      return kExitInvalidInput;
    }
  }
  fleet::ServerOptions opts;
  opts.workers = static_cast<int>(workers.value());
  opts.max_queue = static_cast<int>(max_queue.value());
  opts.io_retries = static_cast<int>(io_retries.value());
  opts.state_path = flags.get_string("state", "");
  const std::string requests = flags.get_string("requests", "-");
  const std::string out_path = flags.get_string("out", "");
  if (reject_unused_arguments(flags)) return kExitInvalidInput;

  int fd = 0;
  bool close_fd = false;
  if (requests != "-") {
    struct stat st;
    const bool is_fifo =
        ::stat(requests.c_str(), &st) == 0 && S_ISFIFO(st.st_mode);
    fd = ::open(requests.c_str(),
                is_fifo ? (O_RDWR | O_NONBLOCK) : (O_RDONLY | O_NONBLOCK));
    if (fd < 0) {
      std::fprintf(stderr, "error: --requests: cannot open '%s'\n",
                   requests.c_str());
      return kExitInvalidInput;
    }
    close_fd = true;
  }
  std::FILE* out = stdout;
  if (!out_path.empty()) {
    // Append: a drained-and-resumed serve keeps writing the same record
    // stream (segment 2 continues where segment 1 stopped).
    out = std::fopen(out_path.c_str(), "a");
    if (out == nullptr) {
      std::fprintf(stderr, "error: --out: cannot open '%s'\n",
                   out_path.c_str());
      if (close_fd) ::close(fd);
      return kExitInvalidInput;
    }
  }

  g_serve_stop.store(false);
  std::signal(SIGTERM, serve_signal_handler);
  std::signal(SIGINT, serve_signal_handler);

  FdLineReader reader;
  reader.fd = fd;
  fleet::Server server(opts);
  const fleet::ServerReport report = server.run(
      [&reader](std::string* line) { return reader.next(line); },
      [out](const fleet::RequestRecord& record) {
        std::fprintf(out, "%s\n", record.to_json_line().c_str());
        std::fflush(out);
      },
      [] { return g_serve_stop.load(); });

  std::signal(SIGTERM, SIG_DFL);
  std::signal(SIGINT, SIG_DFL);
  if (out != stdout) std::fclose(out);
  if (close_fd) ::close(fd);

  std::printf("serve: %lld admitted | %lld ok | %lld degraded | %lld shed | "
              "%lld errors | %lld skipped | %lld parked%s\n",
              static_cast<long long>(report.admitted),
              static_cast<long long>(report.completed),
              static_cast<long long>(report.degraded),
              static_cast<long long>(report.shed),
              static_cast<long long>(report.errors),
              static_cast<long long>(report.resume_skipped),
              static_cast<long long>(report.parked),
              report.drained ? " (drained)" : "");
  if (!report.state_status.ok()) {
    std::fprintf(stderr, "warning: serve state: %s\n",
                 report.state_status.message().c_str());
  }
  return kExitOk;
}

}  // namespace

int main(int argc, char** argv) {
  common::CliFlags flags;
  flags.parse(argc, argv);
  const std::string cmd =
      flags.positional().empty() ? "help" : flags.positional()[0];
  if (cmd == "solve") return cmd_solve(flags);
  if (cmd == "compare") return cmd_compare(flags);
  if (cmd == "stream") return cmd_stream(flags);
  if (cmd == "resolve") return cmd_resolve(flags);
  if (cmd == "check") return cmd_check(flags);
  if (cmd == "serve") return cmd_serve(flags);
  std::printf(
      "usage: mmwave_cli <solve|compare|stream|resolve|check|serve>"
      " [--links=N]\n"
      "       [--channels=K] [--levels=Q] [--gamma-scale=x] [--seed=s]\n"
      "       [--demand-scale=d] [--pricing=MODE[,RULE]]\n"
      "       [--instance=FILE] [--deadline=SECONDS]\n"
      "  --pricing combines the CG mode (heuristic|hybrid|exact) with the\n"
      "          master-LP simplex rule (dantzig|steepest), e.g.\n"
      "          --pricing=hybrid,steepest; either may appear alone\n"
      "  solve   also accepts --csv=plan.csv --profile --warm-start=0|1\n"
      "          --checkpoint=FILE (save solver state) --resume (warm-start\n"
      "          from that checkpoint; fingerprint must match)\n"
      "  stream  takes no --deadline and --pricing=heuristic|hybrid only;\n"
      "          also accepts --gops=N --p-block=p --metrics-json\n"
      "          --checkpoint=FILE (rewrite the session checkpoint\n"
      "          at every GOP boundary) --resume (continue a\n"
      "          checkpointed session mid-stream)\n"
      "          --demand-policy=blind|drain-risk (shape next-period\n"
      "          demands from client-buffer state) --buffer-startup=s\n"
      "          --buffer-rebuffer=s --buffer-target=s (playout thresholds)\n"
      "          --buffer-boost=g --buffer-yield=y (drain-risk shaping)\n"
      "  resolve requires --checkpoint=FILE; also accepts\n"
      "          --block-links=0,3 --block-atten=a --update: re-solves the\n"
      "          blocked instance, warm only from a checkpoint of that same\n"
      "          instance (any other or corrupt checkpoint = cold start);\n"
      "          --update saves the new state for the next resolve\n"
      "  check   runs the solve under the certificate checkers and exits\n"
      "          non-zero on any violated certificate\n"
      "  serve   fleet daemon: --requests=FILE|FIFO|- (JSON lines)\n"
      "          --out=FILE --workers=N --max-queue=N --state=PATH\n"
      "          --io-retries=N;\n"
      "          SIGTERM drains (queue checkpointed under --state,\n"
      "          restart resumes without losing a request)\n"
      "exit status: 0 ok | 1 check failed / unknown command |\n"
      "             2 unknown flag, invalid flag value or instance |\n"
      "             3 degraded solve\n");
  return cmd == "help" ? 0 : 1;
}

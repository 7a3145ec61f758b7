#include "core/column_generation.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <limits>
#include <sstream>
#include <string>

#include "check/instance_validator.h"
#include "check/lp_certificate.h"
#include "check/schedule_verifier.h"
#include "common/fault_injection.h"
#include "common/log.h"
#include "mmwave/power_control.h"

namespace mmwave::core {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Early-stop target of a non-final exact-pricing call: any column priced
/// this comfortably below zero reduced cost will do (the certification call
/// always runs to the cutoff).
constexpr double kEarlyStopPsi = 1.0 + 1e-4;
/// Under a deadline, each exact-pricing call gets
///   min(exact.milp.time_limit_sec,
///       max(kMilpBudgetFraction * remaining, kMinMilpBudgetSec))
/// capped at the remaining budget itself, so the MILP budget shrinks as the
/// deadline nears.
constexpr double kMilpBudgetFraction = 0.5;
constexpr double kMinMilpBudgetSec = 0.05;

/// Wall-clock budget of one solve.  The fault site lets tests script "the
/// deadline expires mid-iteration" deterministically; once exhausted (for
/// real or injected) it stays exhausted.
class DeadlineTracker {
 public:
  explicit DeadlineTracker(double budget_sec)
      : budget_(budget_sec), start_(Clock::now()) {}

  double elapsed() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }
  /// +inf when no deadline was requested.
  double remaining() const {
    return budget_ > 0.0 ? budget_ - elapsed() : kInf;
  }
  bool enabled() const { return budget_ > 0.0; }
  bool exhausted() {
    if (!forced_ && common::fault_fires(common::faults::kCgDeadline))
      forced_ = true;
    return forced_ || (budget_ > 0.0 && remaining() <= 0.0);
  }

 private:
  using Clock = std::chrono::steady_clock;
  double budget_;
  Clock::time_point start_;
  bool forced_ = false;
};

void set_degraded(CgResult& result, CgStopReason reason,
                  common::Status status) {
  result.degraded = true;
  result.stop_reason = reason;
  result.status = std::move(status);
  MMWAVE_LOG_WARN << "column generation degraded (" << to_string(reason)
                  << "): " << result.status.to_string();
}

CgResult solve_cg_impl(const net::Network& net,
                       const std::vector<video::LinkDemand>& demands,
                       const CgOptions& options);

}  // namespace

const char* to_string(CgStopReason reason) {
  switch (reason) {
    case CgStopReason::kConverged: return "converged";
    case CgStopReason::kHeuristicFixedPoint: return "heuristic-fixed-point";
    case CgStopReason::kIterationLimit: return "iteration-limit";
    case CgStopReason::kDeadline: return "deadline";
    case CgStopReason::kStalled: return "stalled";
    case CgStopReason::kMasterFailure: return "master-failure";
    case CgStopReason::kPricingFailure: return "pricing-failure";
    case CgStopReason::kInvalidInput: return "invalid-input";
    case CgStopReason::kInternalError: return "internal-error";
  }
  return "unknown";
}

double theorem1_lower_bound(const std::vector<double>& lambda_hp,
                            const std::vector<double>& lambda_lp,
                            const std::vector<video::LinkDemand>& demands,
                            double phi) {
  // LB = (Lambda_hp . D_hp + Lambda_lp . D_lp) / (1 - Phi), Phi <= 0.
  // A positive phi is clamped to 0 (conservative: it can only shrink the
  // bound), which also keeps the denominator away from the Phi -> 1 pole.
  double dual_value = 0.0;
  for (std::size_t l = 0; l < demands.size(); ++l) {
    dual_value +=
        lambda_hp[l] * demands[l].hp_bits + lambda_lp[l] * demands[l].lp_bits;
  }
  const double denom = 1.0 - std::min(phi, 0.0);  // NaN phi stays NaN
  const double lb = dual_value / denom;
  // Never emit +/-inf or NaN into a best-bound update: corrupted inputs
  // (NaN duals/demands, NaN phi, non-positive denominator) degrade to the
  // trivially valid -inf, which every caller treats as "no bound".
  if (!std::isfinite(dual_value) || std::isnan(denom) || denom < 1.0 ||
      !std::isfinite(lb)) {
    return -kInf;
  }
  return lb;
}

std::vector<sched::Schedule> tdma_initial_columns(const net::Network& net) {
  std::vector<sched::Schedule> columns;
  for (int l = 0; l < net.num_links(); ++l) {
    // Highest solo throughput across channels; ties to higher gain.
    int best_k = -1, best_q = -1;
    double best_gain = -1.0;
    for (int k = 0; k < net.num_channels(); ++k) {
      const int q = net.best_solo_level(l, k);
      if (q > best_q ||
          (q == best_q && q >= 0 && net.direct_gain(l, k) > best_gain)) {
        best_q = q;
        best_k = k;
        best_gain = net.direct_gain(l, k);
      }
    }
    if (best_q < 0) {
      MMWAVE_LOG_DEBUG << "link " << l
                       << " cannot reach any rate level alone; its demand "
                          "cannot be scheduled";
      continue;
    }
    // Minimal solo power for the chosen level.
    const double gamma = net.rate_level(best_q).sinr_threshold;
    const double power = std::min(net.params().p_max_watts,
                                  gamma * net.noise(l) /
                                      net.direct_gain(l, best_k));
    for (int layer = 0; layer < 2; ++layer) {
      sched::Schedule s;
      s.add({l, static_cast<net::Layer>(layer), best_q, best_k, power});
      columns.push_back(std::move(s));
    }
  }
  return columns;
}

CgResult solve_column_generation(const net::Network& net,
                                 const std::vector<video::LinkDemand>& demands,
                                 const CgOptions& options) {
  // The anytime contract: solve() never throws.  Anything escaping the
  // implementation is converted into a degraded result so a scheduling
  // service wrapping this call cannot be taken down by one bad instance.
  try {
    return solve_cg_impl(net, demands, options);
  } catch (const std::exception& e) {
    CgResult result;
    set_degraded(result, CgStopReason::kInternalError,
                 common::Status::Error(common::ErrorCode::kInternal,
                                       std::string("unhandled exception: ") +
                                           e.what()));
    return result;
  } catch (...) {
    CgResult result;
    set_degraded(result, CgStopReason::kInternalError,
                 common::Status::Error(common::ErrorCode::kInternal,
                                       "unhandled non-standard exception"));
    return result;
  }
}

namespace {

CgResult solve_cg_impl(const net::Network& net,
                       const std::vector<video::LinkDemand>& demands,
                       const CgOptions& options) {
  CgResult result;
  DeadlineTracker deadline(options.deadline_sec);

  // Reject malformed instances (NaN gains, negative demands, size
  // mismatches) before any solver arithmetic touches them.
  const check::InstanceReport report = check::validate_instance(net, demands);
  if (!report.ok()) {
    set_degraded(result, CgStopReason::kInvalidInput,
                 common::Status::Error(common::ErrorCode::kInvalidInput,
                                       report.to_string()));
    result.solve_seconds = deadline.elapsed();
    return result;
  }

  // A link that cannot reach even the lowest rate level alone on any
  // channel (deep blockage, hopeless gains) can never be served: rather
  // than making the covering LP infeasible for everyone, exclude its
  // demand and report it so the PNC can defer that session.
  std::vector<video::LinkDemand> effective = demands;
  for (int l = 0; l < net.num_links(); ++l) {
    if (effective[l].total() <= 0.0) continue;
    int best_q = -1;
    for (int k = 0; k < net.num_channels(); ++k)
      best_q = std::max(best_q, net.best_solo_level(l, k));
    if (best_q < 0) {
      result.unserved_links.push_back(l);
      effective[l] = {};
    }
  }

  // Independent certificate checkers (src/check).  They share no code with
  // the pricing solvers: a wrong answer in the simplex or the MILP cannot
  // also be wrong here the same way.
  result.verification.enabled = options.verify;
  check::VerifyOptions vopts;
  vopts.allow_layer_split = options.exact.allow_layer_split;
  const check::ScheduleVerifier referee(net, vopts);
  auto verify_column = [&](const sched::Schedule& s, const std::string& origin) {
    if (!options.verify) return;
    ++result.verification.columns_verified;
    const check::VerifyReport rep = referee.verify(s);
    if (!rep.ok()) {
      result.verification.errors.push_back(origin + ": " + rep.to_string());
      MMWAVE_LOG_ERROR << "schedule verification failed (" << origin
                       << "): " << rep.to_string();
    }
  };
  auto certify_master = [&](const MasterCertificate& cert,
                            const std::string& where) {
    if (!options.verify) return;
    ++result.verification.lp_certificates;
    const check::LpCertReport rep =
        check::check_lp_certificate(cert.model, cert.solution);
    if (!rep.ok()) {
      result.verification.errors.push_back("master LP certificate (" + where +
                                           "): " + rep.to_string());
      MMWAVE_LOG_ERROR << "LP certificate failed (" << where
                       << "): " << rep.to_string();
    }
  };

  MasterProblem master(net, effective);
  master.set_warm_start(options.warm_start_master);
  {
    lp::LpOptions lp_opts;
    lp_opts.pricing = options.lp_pricing;
    master.set_lp_options(lp_opts);
    result.profile.lp_pricing_rule = lp::to_string(options.lp_pricing);
  }
  for (const sched::Schedule& s : tdma_initial_columns(net)) {
    verify_column(s, "TDMA initial column");
    master.add_column(s);
  }

  // Warm pool (checkpoint restore).  Every column is
  // re-validated against THIS instance before entry: a stale or corrupted
  // pool can cost a rejected column, never a wrong master.
  for (const sched::Schedule& s : options.warm_pool) {
    if (s.empty()) {
      ++result.profile.warm_pool_rejected;
      continue;
    }
    const sched::ValidationResult v = sched::validate_schedule(
        net, s, /*sinr_slack=*/1e-6, options.exact.allow_layer_split);
    if (!v.ok) {
      ++result.profile.warm_pool_rejected;
      MMWAVE_LOG_WARN << "warm-pool column rejected: " << v.reason;
      continue;
    }
    verify_column(s, "warm-pool column");
    if (master.add_column(s)) {
      ++result.profile.warm_pool_columns;
    } else {
      ++result.profile.warm_pool_rejected;  // duplicate of TDMA/pool column
    }
  }

  // The pricing-MILP skeleton (constraints, big-M terms, conflict cuts)
  // depends only on the network, so it is built once and reused with a
  // fresh objective across every exact-pricing call of this run.
  PricingMilpCache pricing_cache;

  // Per-phase wall-clock instrumentation.
  CgProfile& prof = result.profile;
  using Clock = std::chrono::steady_clock;
  const auto seconds_since = [](Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
  };
  double last_master_seconds = 0.0;
  const auto timed_master_solve = [&](MasterCertificate* cert_dst) {
    const auto t0 = Clock::now();
    MasterSolution mp = master.solve(cert_dst);
    last_master_seconds = seconds_since(t0);
    prof.master_seconds += last_master_seconds;
    prof.master_pivots += mp.simplex_iterations;
    prof.lp_ftran_calls += mp.lp_stats.ftran_calls;
    prof.lp_btran_calls += mp.lp_stats.btran_calls;
    prof.lp_refactorizations += mp.lp_stats.refactorizations;
    ++prof.master_solves;
    if (mp.warm_started) ++prof.master_warm_hits;
    return mp;
  };
  const auto timed_greedy = [&](const std::vector<double>& lhp,
                                const std::vector<double>& llp) {
    const auto t0 = Clock::now();
    PricingResult r = solve_pricing_greedy(net, lhp, llp, options.greedy);
    prof.greedy_seconds += seconds_since(t0);
    ++prof.greedy_calls;
    return r;
  };
  const auto timed_milp = [&](const std::vector<double>& lhp,
                              const std::vector<double>& llp,
                              const MilpPricingOptions& exact,
                              const sched::Schedule* warm) {
    const auto t0 = Clock::now();
    PricingResult r =
        solve_pricing_milp(net, lhp, llp, exact, warm, &pricing_cache);
    prof.milp_seconds += seconds_since(t0);
    ++prof.milp_calls;
    prof.milp_nodes += r.milp_nodes;
    prof.milp_lp_pivots += r.milp_lp_pivots;
    prof.milp_build_seconds = pricing_cache.build_seconds();
    prof.milp_pair_power_solves = pricing_cache.pair_power_solves();
    return r;
  };

  /// Per-call exact-pricing options under the deadline: the MILP budget
  /// shrinks with the remaining wall clock so one call can never blow
  /// through the deadline.  ExactAlways promises an exact Phi each
  /// iteration (Fig. 4), so its calls run to optimality; every other call
  /// takes the first column with Psi >= kEarlyStopPsi, and stops once its
  /// bound proves Psi <= 1 + kCgEps: that settles "no improving column"
  /// without closing the gap to the optimal Psi.
  const bool exact_always = options.pricing == PricingMode::ExactAlways;
  const auto budgeted_exact = [&]() {
    MilpPricingOptions exact = options.exact;
    exact.milp.cutoff = exact_always ? std::nan("") : 1.0 + kCgEps;
    exact.target_psi = exact_always ? std::nan("") : kEarlyStopPsi;
    const double remaining = deadline.remaining();
    if (std::isfinite(remaining)) {
      double budget =
          std::min(exact.milp.time_limit_sec,
                   std::max(kMilpBudgetFraction * remaining,
                            kMinMilpBudgetSec));
      budget = std::min(budget, std::max(remaining, 0.0));
      exact.milp.time_limit_sec = budget;
      // A real deadline makes the budget hard: push it into every node LP
      // so a single pricing call can never overrun the wall clock.
      exact.milp.hard_time_limit = true;
    }
    return exact;
  };

  double best_lb = std::nan("");
  MasterCertificate cert;
  MasterCertificate* cert_out = options.verify ? &cert : nullptr;

  // Incumbent snapshot: tau and duals of the last master solve that
  // succeeded, so a later breakdown still returns the best schedule seen
  // (and a checkpoint can still record usable multipliers).
  std::vector<double> incumbent_tau;
  std::vector<double> incumbent_lambda_hp;
  std::vector<double> incumbent_lambda_lp;
  double incumbent_objective = std::nan("");

  for (int iter = 0; iter < options.max_iterations; ++iter) {
    if (deadline.exhausted()) {
      set_degraded(result, CgStopReason::kDeadline,
                   common::Status::Error(
                       common::ErrorCode::kDeadlineExceeded,
                       "deadline exhausted before iteration " +
                           std::to_string(iter)));
      break;
    }

    const MasterSolution mp = timed_master_solve(cert_out);
    if (!mp.ok) {
      set_degraded(result, CgStopReason::kMasterFailure,
                   common::Status::Error(
                       common::ErrorCode::kNumericalBreakdown,
                       "master LP failed at iteration " +
                           std::to_string(iter) + " (" +
                           mp.status.to_string() + ")"));
      break;
    }
    certify_master(cert, "iteration " + std::to_string(iter));
    incumbent_tau = mp.tau;
    incumbent_lambda_hp = mp.lambda_hp;
    incumbent_lambda_lp = mp.lambda_lp;
    incumbent_objective = mp.objective_slots;
    const auto pricing_t0 = Clock::now();

    // ---- Pricing --------------------------------------------------------
    PricingResult pricing;
    bool exact_used = false;
    if (exact_always) {
      const PricingResult greedy = timed_greedy(mp.lambda_hp, mp.lambda_lp);
      pricing = timed_milp(mp.lambda_hp, mp.lambda_lp, budgeted_exact(),
                           greedy.found ? &greedy.schedule : nullptr);
      exact_used = true;
    } else {
      pricing = timed_greedy(mp.lambda_hp, mp.lambda_lp);
      // Only a new column improving by more than kCgEps settles the
      // iteration; anything else goes to the exact oracle.
      const bool heuristic_failed = !pricing.found ||
                                    1.0 - pricing.psi >= -kCgEps ||
                                    master.contains(pricing.schedule);
      if (heuristic_failed &&
          options.pricing == PricingMode::HeuristicThenExact) {
        pricing = timed_milp(mp.lambda_hp, mp.lambda_lp, budgeted_exact(),
                             pricing.found ? &pricing.schedule : nullptr);
        exact_used = true;
      }
    }

    const double phi = 1.0 - pricing.psi;
    // Valid lower bound on the most negative reduced cost.
    const double phi_lb = 1.0 - pricing.psi_upper_bound;

    IterationStat stat;
    stat.iteration = iter;
    stat.master_objective = mp.objective_slots;
    stat.phi = phi;
    stat.num_columns = static_cast<int>(master.num_columns());
    stat.exact_pricing = exact_used && pricing.exact;
    stat.master_seconds = last_master_seconds;
    stat.pricing_seconds = seconds_since(pricing_t0);
    stat.master_pivots = mp.simplex_iterations;
    stat.master_warm_started = mp.warm_started;
    if (std::isfinite(phi_lb)) {
      const double lb =
          theorem1_lower_bound(mp.lambda_hp, mp.lambda_lp, effective, phi_lb);
      if (std::isfinite(lb)) {
        stat.lower_bound = lb;
        if (std::isnan(best_lb) || lb > best_lb) best_lb = lb;
      }
    }
    stat.best_lower_bound = best_lb;
    // Theorem-1 invariant: any valid lower bound must sit below the MP
    // objective (an upper bound on the P1 optimum) at every iteration.
    if (options.verify && std::isfinite(stat.lower_bound)) {
      ++result.verification.bound_checks;
      const double slack = 1e-6 * (1.0 + std::abs(mp.objective_slots));
      if (stat.lower_bound > mp.objective_slots + slack) {
        std::ostringstream ss;
        ss << "Theorem-1 invariant violated at iteration " << iter
           << ": LB " << stat.lower_bound << " > MP objective "
           << mp.objective_slots;
        result.verification.errors.push_back(ss.str());
        MMWAVE_LOG_ERROR << ss.str();
      }
    }
    result.history.push_back(stat);
    result.total_slots = mp.objective_slots;
    result.iterations = iter + 1;

    // ---- Termination ----------------------------------------------------
    if (phi >= -kCgEps) {
      if (exact_used && pricing.exact) {
        // Optimal: the exact pricer certified Phi >= -kCgEps.
        result.converged = true;
        result.stop_reason = CgStopReason::kConverged;
      } else if (options.pricing == PricingMode::HeuristicOnly) {
        // Heuristic fixed point: the expected terminal state of this mode.
        result.stop_reason = CgStopReason::kHeuristicFixedPoint;
      } else {
        // Inconclusive: the exact pricer hit its node or time limit without
        // an improving column, which proves nothing.  Stop with the
        // incumbent and the best valid LB.
        set_degraded(
            result, CgStopReason::kPricingFailure,
            pricing.status.ok()
                ? common::Status::Error(common::ErrorCode::kLimitHit,
                                        "exact pricing truncated without a "
                                        "usable certificate")
                : pricing.status);
      }
      break;
    }
    if (options.gap_tolerance > 0.0 && !std::isnan(best_lb) &&
        mp.objective_slots > 0.0 &&
        (mp.objective_slots - best_lb) / mp.objective_slots <=
            options.gap_tolerance) {
      result.converged = true;
      result.stop_reason = CgStopReason::kConverged;
      break;
    }

    // ---- Column entry ---------------------------------------------------
    verify_column(pricing.schedule,
                  "priced column, iteration " + std::to_string(iter));
    if (master.add_column(pricing.schedule)) continue;
    // The pricer regenerated an existing column claiming negative reduced
    // cost.  That is the heuristic-only mode's fixed point; in the other
    // modes it is a numerical stall.
    if (options.pricing == PricingMode::HeuristicOnly) {
      result.stop_reason = CgStopReason::kHeuristicFixedPoint;
    } else {
      set_degraded(result, CgStopReason::kStalled,
                   common::Status::Error(common::ErrorCode::kStalled,
                                         "duplicate column at iteration " +
                                             std::to_string(iter)));
    }
    break;
  }

  if (!result.degraded && result.stop_reason == CgStopReason::kIterationLimit &&
      !result.converged && result.iterations >= options.max_iterations) {
    set_degraded(result, CgStopReason::kIterationLimit,
                 common::Status::Error(common::ErrorCode::kLimitHit,
                                       "iteration limit (" +
                                           std::to_string(options.max_iterations) +
                                           ") reached before convergence"));
  }

  // ---- Final solution extraction ---------------------------------------
  const MasterSolution final_mp = timed_master_solve(cert_out);
  result.pool = master.columns();
  result.pool_tau.assign(master.num_columns(), 0.0);
  if (final_mp.ok) {
    certify_master(cert, "final extraction");
    result.total_slots = final_mp.objective_slots;
    result.pool_tau = final_mp.tau;
    result.duals_hp = final_mp.lambda_hp;
    result.duals_lp = final_mp.lambda_lp;
    for (std::size_t s = 0; s < master.num_columns(); ++s) {
      if (final_mp.tau[s] > 1e-9) {
        result.timeline.push_back(
            {master.columns()[s], final_mp.tau[s]});
      }
    }
  } else if (!incumbent_tau.empty()) {
    // The extraction solve broke down: fall back to the incumbent snapshot
    // (the last optimal restricted master), which is still a feasible plan.
    MMWAVE_LOG_WARN << "final master solve failed ("
                    << final_mp.status.to_string()
                    << "); returning the incumbent plan";
    result.total_slots = incumbent_objective;
    std::copy(incumbent_tau.begin(), incumbent_tau.end(),
              result.pool_tau.begin());
    result.duals_hp = incumbent_lambda_hp;
    result.duals_lp = incumbent_lambda_lp;
    for (std::size_t s = 0; s < incumbent_tau.size(); ++s) {
      if (incumbent_tau[s] > 1e-9) {
        result.timeline.push_back({master.columns()[s], incumbent_tau[s]});
      }
    }
    if (!result.degraded) {
      set_degraded(result, CgStopReason::kMasterFailure, final_mp.status);
    }
  } else if (!result.degraded) {
    set_degraded(result, CgStopReason::kMasterFailure,
                 final_mp.status.ok()
                     ? common::Status::Error(
                           common::ErrorCode::kNumericalBreakdown,
                           "master LP never solved")
                     : final_mp.status);
  }
  result.lower_bound = best_lb;

  // The emitted plan itself: every schedule re-proved feasible and the
  // covering requirement sum_s tau^s r_l^s >= d_l re-checked per layer.
  // Degraded plans are not coverage-checked: an anytime result returned
  // early may legitimately under-cover (its schedules are still verified
  // individually as they enter the pool).
  if (options.verify && final_mp.ok && !result.degraded) {
    const check::VerifyReport rep =
        referee.verify_timeline(result.timeline, effective);
    if (!rep.ok()) {
      result.verification.errors.push_back("final timeline: " +
                                           rep.to_string());
      MMWAVE_LOG_ERROR << "timeline verification failed: " << rep.to_string();
    }
  }
  result.solve_seconds = deadline.elapsed();
  return result;
}

}  // namespace
}  // namespace mmwave::core

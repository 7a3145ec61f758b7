#include "core/column_generation.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "baselines/baselines.h"
#include "common/rng.h"
#include "video/demand.h"

namespace mmwave::core {
namespace {

net::Network make_net(std::uint64_t seed, int links, int channels,
                      int levels) {
  common::Rng rng(seed);
  net::NetworkParams p;
  p.num_links = links;
  p.num_channels = channels;
  p.sinr_thresholds.resize(levels);
  for (int q = 0; q < levels; ++q) p.sinr_thresholds[q] = 0.1 * (q + 1);
  return net::Network::table_i(p, rng);
}

std::vector<video::LinkDemand> random_demands(const net::Network& net,
                                              std::uint64_t seed) {
  common::Rng rng(seed * 131 + 7);
  std::vector<video::LinkDemand> d(net.num_links());
  for (auto& x : d) {
    x.hp_bits = rng.uniform(500.0, 2000.0);
    x.lp_bits = rng.uniform(500.0, 2000.0);
  }
  return d;
}

TEST(ColumnGeneration, ConvergesAndCertifiesOptimality) {
  const auto net = make_net(1, 4, 2, 2);
  const auto demands = random_demands(net, 1);
  CgOptions opts;
  opts.pricing = PricingMode::ExactAlways;
  const auto result = solve_column_generation(net, demands, opts);
  EXPECT_TRUE(result.converged);
  EXPECT_GT(result.total_slots, 0.0);
  // Certified: gap between UB and Theorem-1 LB closes.
  ASSERT_FALSE(std::isnan(result.lower_bound));
  EXPECT_NEAR(result.gap(), 0.0, 1e-5);
}

TEST(ColumnGeneration, UpperBoundMonotoneNonIncreasing) {
  const auto net = make_net(2, 5, 2, 2);
  const auto demands = random_demands(net, 2);
  CgOptions opts;
  opts.pricing = PricingMode::ExactAlways;
  const auto result = solve_column_generation(net, demands, opts);
  for (std::size_t i = 1; i < result.history.size(); ++i) {
    EXPECT_LE(result.history[i].master_objective,
              result.history[i - 1].master_objective + 1e-6);
  }
}

TEST(ColumnGeneration, LowerBoundNeverExceedsUpperBound) {
  const auto net = make_net(3, 5, 2, 2);
  const auto demands = random_demands(net, 3);
  CgOptions opts;
  opts.pricing = PricingMode::ExactAlways;
  const auto result = solve_column_generation(net, demands, opts);
  for (const auto& it : result.history) {
    if (!std::isnan(it.lower_bound)) {
      EXPECT_LE(it.lower_bound, it.master_objective * (1.0 + 1e-9));
    }
  }
}

TEST(ColumnGeneration, BestLowerBoundMonotone) {
  const auto net = make_net(4, 5, 2, 2);
  const auto demands = random_demands(net, 4);
  CgOptions opts;
  opts.pricing = PricingMode::ExactAlways;
  const auto result = solve_column_generation(net, demands, opts);
  double prev = -1e300;
  for (const auto& it : result.history) {
    if (std::isnan(it.best_lower_bound)) continue;
    EXPECT_GE(it.best_lower_bound, prev - 1e-9);
    prev = it.best_lower_bound;
  }
}

TEST(ColumnGeneration, PhiNonPositiveUntilTermination) {
  const auto net = make_net(5, 5, 2, 2);
  const auto demands = random_demands(net, 5);
  CgOptions opts;
  opts.pricing = PricingMode::ExactAlways;
  const auto result = solve_column_generation(net, demands, opts);
  for (std::size_t i = 0; i + 1 < result.history.size(); ++i) {
    EXPECT_LT(result.history[i].phi, 0.0);
  }
  EXPECT_GE(result.history.back().phi, -kCgEps);
}

TEST(ColumnGeneration, FinalTimelineMeetsDemands) {
  const auto net = make_net(6, 5, 2, 2);
  const auto demands = random_demands(net, 6);
  const auto result = solve_column_generation(net, demands);
  const auto exec = sched::execute_timeline(net, result.timeline, demands);
  EXPECT_TRUE(exec.all_demands_met);
  EXPECT_NEAR(exec.total_slots, result.total_slots,
              1e-6 * result.total_slots);
}

TEST(ColumnGeneration, AllTimelineSchedulesFeasible) {
  const auto net = make_net(7, 6, 2, 3);
  const auto demands = random_demands(net, 7);
  const auto result = solve_column_generation(net, demands);
  for (const auto& ts : result.timeline) {
    const auto check = sched::validate_schedule(net, ts.schedule);
    EXPECT_TRUE(check.ok) << check.reason;
    EXPECT_GT(ts.slots, 0.0);
  }
}

TEST(ColumnGeneration, NeverWorseThanTdma) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const auto net = make_net(seed + 40, 5, 2, 2);
    const auto demands = random_demands(net, seed + 40);
    const auto cg = solve_column_generation(net, demands);
    const auto td = baselines::tdma(net, demands);
    ASSERT_TRUE(td.served_all);
    EXPECT_LE(cg.total_slots, td.total_slots * (1.0 + 1e-6))
        << "seed " << seed;
  }
}

class CgVsExhaustive : public ::testing::TestWithParam<int> {};

TEST_P(CgVsExhaustive, MatchesExhaustiveOptimum) {
  const std::uint64_t seed = static_cast<std::uint64_t>(GetParam());
  const auto net = make_net(seed + 1000, 4, 2, 2);
  const auto demands = random_demands(net, seed + 1000);

  const auto exact = baselines::exhaustive_optimal(net, demands);
  ASSERT_TRUE(exact.ok);

  CgOptions opts;
  opts.pricing = PricingMode::ExactAlways;
  const auto cg = solve_column_generation(net, demands, opts);
  ASSERT_TRUE(cg.converged) << "seed " << seed;
  EXPECT_NEAR(cg.total_slots, exact.total_slots,
              1e-5 * (1.0 + exact.total_slots))
      << "seed " << seed
      << " (exhaustive enumerated " << exact.num_feasible_schedules
      << " schedules)";
}

INSTANTIATE_TEST_SUITE_P(Seeds, CgVsExhaustive, ::testing::Range(0, 12));

// Also reads the B&B work counters of CgProfile: the hybrid's exact calls
// stop once the bound proves Psi <= 1 + eps, so its certification closes
// at the root, while ExactAlways closes the gap to the optimal Psi at
// every iteration and has to branch.
TEST(ColumnGeneration, HeuristicThenExactMatchesExactAlways) {
  std::int64_t exact_branch_nodes = 0;
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const auto net = make_net(seed + 60, 4, 2, 2);
    const auto demands = random_demands(net, seed + 60);
    CgOptions exact_opts;
    exact_opts.pricing = PricingMode::ExactAlways;
    const auto exact = solve_column_generation(net, demands, exact_opts);
    CgOptions hybrid_opts;
    hybrid_opts.pricing = PricingMode::HeuristicThenExact;
    const auto hybrid = solve_column_generation(net, demands, hybrid_opts);
    ASSERT_TRUE(exact.converged);
    ASSERT_TRUE(hybrid.converged);
    EXPECT_NEAR(hybrid.total_slots, exact.total_slots,
                1e-5 * (1.0 + exact.total_slots))
        << "seed " << seed;
    ASSERT_GT(hybrid.profile.milp_calls, 0) << "seed " << seed;
    EXPECT_EQ(hybrid.profile.milp_nodes, hybrid.profile.milp_calls)
        << "seed " << seed;
    EXPECT_GT(hybrid.profile.milp_lp_pivots, 0) << "seed " << seed;
    EXPECT_GE(exact.profile.milp_nodes, exact.profile.milp_calls);
    exact_branch_nodes += exact.profile.milp_nodes - exact.profile.milp_calls;
  }
  EXPECT_GT(exact_branch_nodes, 0);
}

TEST(ColumnGeneration, HeuristicOnlyIsUpperBound) {
  const auto net = make_net(70, 5, 2, 2);
  const auto demands = random_demands(net, 70);
  CgOptions exact_opts;
  exact_opts.pricing = PricingMode::ExactAlways;
  const auto exact = solve_column_generation(net, demands, exact_opts);
  CgOptions fast_opts;
  fast_opts.pricing = PricingMode::HeuristicOnly;
  const auto fast = solve_column_generation(net, demands, fast_opts);
  EXPECT_FALSE(fast.converged);  // no certificate in heuristic mode
  EXPECT_GE(fast.total_slots, exact.total_slots - 1e-6);
  // But it must still serve the demands.
  const auto exec = sched::execute_timeline(net, fast.timeline, demands);
  EXPECT_TRUE(exec.all_demands_met);
}

TEST(ColumnGeneration, GapToleranceStopsEarly) {
  const auto net = make_net(80, 6, 2, 3);
  const auto demands = random_demands(net, 80);
  CgOptions tight;
  tight.pricing = PricingMode::ExactAlways;
  const auto full = solve_column_generation(net, demands, tight);
  CgOptions loose;
  loose.pricing = PricingMode::ExactAlways;
  loose.gap_tolerance = 0.10;
  const auto early = solve_column_generation(net, demands, loose);
  EXPECT_TRUE(early.converged);
  EXPECT_LE(early.iterations, full.iterations);
  // The early answer is within the promised 10% of optimal.
  EXPECT_LE(early.total_slots, full.total_slots * 1.10 + 1e-6);
}

TEST(ColumnGeneration, ZeroDemandsTrivial) {
  const auto net = make_net(90, 4, 2, 2);
  std::vector<video::LinkDemand> demands(net.num_links());
  const auto result = solve_column_generation(net, demands);
  EXPECT_NEAR(result.total_slots, 0.0, 1e-9);
}

TEST(ColumnGeneration, IterationLimitRespected) {
  const auto net = make_net(91, 6, 3, 3);
  const auto demands = random_demands(net, 91);
  CgOptions opts;
  opts.max_iterations = 3;
  const auto result = solve_column_generation(net, demands, opts);
  EXPECT_LE(result.iterations, 3);
  // Even truncated, the incumbent serves the demands (master is feasible).
  const auto exec = sched::execute_timeline(net, result.timeline, demands);
  EXPECT_TRUE(exec.all_demands_met);
}

// ---- Recorded answers -----------------------------------------------------
// The solver's tolerances and budgets are fixed in code; a changed value
// shows up here as a different iteration count, pool or plan, not only as
// a slower benchmark.  Each row was recorded from the solver it pins; the
// MILP wall-clock limit is lifted so no row depends on machine speed
// (perfbench does the same).

/// FNV-1a (64-bit) over the timeline's schedule keys, one per line.
std::uint64_t timeline_key_digest(
    const std::vector<sched::TimedSchedule>& timeline) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const sched::TimedSchedule& ts : timeline) {
    for (const unsigned char c : ts.schedule.key() + "\n") {
      h ^= c;
      h *= 1099511628211ULL;
    }
  }
  return h;
}

struct RecordedCase {
  const char* name;
  // Table I instance, demands as `mmwave_cli --demand-scale=1e-3`.
  int links, channels, levels;
  double gamma_scale;
  std::uint64_t seed;
  PricingMode pricing;
  std::int64_t max_nodes;  // 0 keeps the CgOptions default
  bool verify;
  // Recorded answer.
  bool converged;
  CgStopReason stop_reason;
  int iterations;
  std::size_t pool_size, timeline_size;
  std::uint64_t timeline_digest;
  double total_slots, lower_bound;  // NaN: no Theorem-1 bound
  int lp_certificates, columns_verified, bound_checks;
  /// A warning the solve must print ("" for none).
  const char* warning;
};

constexpr double kNoBound = std::numeric_limits<double>::quiet_NaN();

const RecordedCase kRecorded[] = {
    {"table-I L=10 K=5 hybrid", 10, 5, 5, 1.0, 1,
     PricingMode::HeuristicThenExact, 0, false,
     true, CgStopReason::kConverged, 3, 22, 4, 0xb2c348e42cb22b3cULL,
     88.906216686124452, 88.906216686124452, 0, 0, 0, ""},
    {"gamma x3 L=12 K=3 Q=4 hybrid", 12, 3, 4, 3.0, 5,
     PricingMode::HeuristicThenExact, 0, false,
     true, CgStopReason::kConverged, 51, 74, 21, 0x9326d479721e3bedULL,
     45.271296329057122, 45.271296329057179, 0, 0, 0, ""},
    {"gamma x3 L=12 K=3 Q=4 exact", 12, 3, 4, 3.0, 5,
     PricingMode::ExactAlways, 0, false,
     true, CgStopReason::kConverged, 35, 58, 17, 0xe40f8621ef53b8d3ULL,
     45.271296329057115, 45.27129632905713, 0, 0, 0, ""},
    {"gamma x3 L=12 K=3 Q=4 heuristic", 12, 3, 4, 3.0, 5,
     PricingMode::HeuristicOnly, 0, false,
     false, CgStopReason::kHeuristicFixedPoint, 51, 74, 21,
     0x9326d479721e3bedULL, 45.271296329057122, kNoBound, 0, 0, 0, ""},
    // A 4-node B&B budget leaves the first exact-pricing call inconclusive,
    // which ends the solve with the incumbent and its Theorem-1 bound.
    {"gamma x3 L=7 K=3 Q=4 4-node budget", 7, 3, 4, 3.0, 7,
     PricingMode::HeuristicThenExact, 4, false,
     false, CgStopReason::kPricingFailure, 22, 35, 11, 0xcb04864982d6436fULL,
     44.652982800974982, 34.88462174946509, 0, 0, 0,
     "column generation degraded (pricing-failure)"},
    // The first instance of perfbench's bnb bank under that workload's
    // 4-node budget, so a change to a bnb answer shows up in tier 1.
    {"bnb bank L=7 K=3 Q=4 4-node budget", 7, 3, 4, 3.0,
     7875207928476110273ULL, PricingMode::HeuristicThenExact, 4, false,
     false, CgStopReason::kPricingFailure, 37, 50, 14, 0x566f621fca3203ffULL,
     42.611652966015257, 38.463640466265865, 0, 0, 0,
     "column generation degraded (pricing-failure)"},
    {"table-I L=10 K=5 hybrid verified", 10, 5, 5, 1.0, 1,
     PricingMode::HeuristicThenExact, 0, true,
     true, CgStopReason::kConverged, 3, 22, 4, 0xb2c348e42cb22b3cULL,
     88.906216686124452, 88.906216686124452, 4, 22, 1, ""},
};

void expect_close(double recorded, double got, const char* what,
                  const char* name) {
  if (std::isnan(recorded)) {
    EXPECT_TRUE(std::isnan(got)) << name << ": " << what << " = " << got;
    return;
  }
  EXPECT_NEAR(got, recorded, 1e-9 * std::abs(recorded))
      << name << ": " << what;
}

TEST(ColumnGeneration, AnswersMatchRecordedValues) {
  for (const RecordedCase& c : kRecorded) {
    common::Rng rng(c.seed);
    net::NetworkParams p;
    p.num_links = c.links;
    p.num_channels = c.channels;
    p.sinr_thresholds.resize(c.levels);
    for (int q = 0; q < c.levels; ++q)
      p.sinr_thresholds[q] = 0.1 * (q + 1) * c.gamma_scale;
    const net::Network net = net::Network::table_i(p, rng);
    video::DemandConfig dcfg;
    dcfg.demand_scale = 1e-3;
    common::Rng drng = rng.fork(0x5EED);
    const auto demands = video::make_link_demands(c.links, dcfg, drng);

    CgOptions opts;
    opts.pricing = c.pricing;
    opts.verify = c.verify;
    opts.exact.milp.time_limit_sec = 1e9;
    if (c.max_nodes > 0) opts.exact.milp.max_nodes = c.max_nodes;
    testing::internal::CaptureStderr();
    const CgResult r = solve_column_generation(net, demands, opts);
    const std::string log = testing::internal::GetCapturedStderr();

    EXPECT_EQ(r.converged, c.converged) << c.name;
    EXPECT_EQ(r.stop_reason, c.stop_reason)
        << c.name << ": " << to_string(r.stop_reason);
    EXPECT_EQ(r.iterations, c.iterations) << c.name;
    EXPECT_EQ(r.pool.size(), c.pool_size) << c.name;
    EXPECT_EQ(r.timeline.size(), c.timeline_size) << c.name;
    EXPECT_EQ(timeline_key_digest(r.timeline), c.timeline_digest) << c.name;
    expect_close(c.total_slots, r.total_slots, "total_slots", c.name);
    expect_close(c.lower_bound, r.lower_bound, "lower_bound", c.name);
    EXPECT_EQ(r.verification.lp_certificates, c.lp_certificates) << c.name;
    EXPECT_EQ(r.verification.columns_verified, c.columns_verified) << c.name;
    EXPECT_EQ(r.verification.bound_checks, c.bound_checks) << c.name;
    EXPECT_TRUE(r.verification.errors.empty()) << c.name;
    if (*c.warning != '\0') {
      EXPECT_NE(log.find(c.warning), std::string::npos) << c.name << ":\n"
                                                        << log;
    }
  }
}

TEST(ColumnGeneration, HistoryColumnsGrow) {
  const auto net = make_net(92, 5, 2, 2);
  const auto demands = random_demands(net, 92);
  const auto result = solve_column_generation(net, demands);
  for (std::size_t i = 1; i < result.history.size(); ++i) {
    EXPECT_GE(result.history[i].num_columns,
              result.history[i - 1].num_columns);
  }
}

}  // namespace
}  // namespace mmwave::core

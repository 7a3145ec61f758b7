#include "core/master.h"

#include <gtest/gtest.h>

#include "core/column_generation.h"

namespace mmwave::core {
namespace {

net::Network make_net(std::uint64_t seed, int links = 4, int channels = 2) {
  common::Rng rng(seed);
  net::NetworkParams p;
  p.num_links = links;
  p.num_channels = channels;
  return net::Network::table_i(p, rng);
}

std::vector<video::LinkDemand> uniform_demands(const net::Network& net,
                                               double hp, double lp) {
  return std::vector<video::LinkDemand>(net.num_links(), {hp, lp});
}

TEST(TdmaColumns, TwoPerLink) {
  const auto net = make_net(1);
  const auto cols = tdma_initial_columns(net);
  EXPECT_EQ(cols.size(), 8u);  // (hp, lp) x 4 links
  for (const auto& s : cols) {
    EXPECT_EQ(s.size(), 1u);
    const auto check = sched::validate_schedule(net, s);
    EXPECT_TRUE(check.ok) << check.reason;
  }
}

TEST(TdmaColumns, PicksBestSoloConfiguration) {
  const auto net = make_net(2);
  const auto cols = tdma_initial_columns(net);
  for (const auto& s : cols) {
    const auto& tx = s.transmissions()[0];
    // No channel offers a strictly higher solo level.
    for (int k = 0; k < net.num_channels(); ++k)
      EXPECT_LE(net.best_solo_level(tx.link, k), tx.rate_level);
  }
}

TEST(Master, TdmaOnlyObjectiveIsSumOfSoloTimes) {
  const auto net = make_net(3);
  const auto demands = uniform_demands(net, 1000.0, 500.0);
  MasterProblem master(net, demands);
  for (const auto& s : tdma_initial_columns(net)) master.add_column(s);
  const auto sol = master.solve();
  ASSERT_TRUE(sol.ok);

  double expected = 0.0;
  for (int l = 0; l < net.num_links(); ++l) {
    int best_q = -1;
    for (int k = 0; k < net.num_channels(); ++k)
      best_q = std::max(best_q, net.best_solo_level(l, k));
    ASSERT_GE(best_q, 0);
    expected += (demands[l].hp_bits + demands[l].lp_bits) /
                net.bits_per_slot(best_q);
  }
  EXPECT_NEAR(sol.objective_slots, expected, 1e-6 * expected);
}

TEST(Master, DualsNonnegativeAndCoverTightRows) {
  const auto net = make_net(4);
  const auto demands = uniform_demands(net, 1000.0, 500.0);
  MasterProblem master(net, demands);
  for (const auto& s : tdma_initial_columns(net)) master.add_column(s);
  const auto sol = master.solve();
  ASSERT_TRUE(sol.ok);
  for (int l = 0; l < net.num_links(); ++l) {
    EXPECT_GE(sol.lambda_hp[l], 0.0);
    EXPECT_GE(sol.lambda_lp[l], 0.0);
    // With TDMA-only columns every demand row is tight and priced: the
    // dual equals 1/rate of the link's solo column.
    EXPECT_GT(sol.lambda_hp[l], 0.0);
  }
}

TEST(Master, DuplicateColumnRejected) {
  const auto net = make_net(5);
  MasterProblem master(net, uniform_demands(net, 100.0, 100.0));
  const auto cols = tdma_initial_columns(net);
  EXPECT_TRUE(master.add_column(cols[0]));
  EXPECT_FALSE(master.add_column(cols[0]));
  EXPECT_TRUE(master.contains(cols[0]));
  EXPECT_EQ(master.num_columns(), 1u);
}

TEST(Master, InfeasibleWithoutCoveringColumns) {
  const auto net = make_net(6);
  MasterProblem master(net, uniform_demands(net, 100.0, 100.0));
  // Only link 0's columns present; other links' demands cannot be met.
  const auto cols = tdma_initial_columns(net);
  master.add_column(cols[0]);
  master.add_column(cols[1]);
  const auto sol = master.solve();
  EXPECT_FALSE(sol.ok);
}

TEST(Master, ReducedCostOfExistingOptimalColumnIsNonnegative) {
  const auto net = make_net(7);
  const auto demands = uniform_demands(net, 1000.0, 500.0);
  MasterProblem master(net, demands);
  for (const auto& s : tdma_initial_columns(net)) master.add_column(s);
  const auto sol = master.solve();
  ASSERT_TRUE(sol.ok);
  for (const auto& s : master.columns()) {
    // mu^s = 1 - sum_l (lambda_hp r^s_hp + lambda_lp r^s_lp).
    const auto hp = s.rate_column_bits_per_slot(net, net::Layer::Hp);
    const auto lp = s.rate_column_bits_per_slot(net, net::Layer::Lp);
    double reduced_cost = 1.0;
    for (int l = 0; l < net.num_links(); ++l)
      reduced_cost -= sol.lambda_hp[l] * hp[l] + sol.lambda_lp[l] * lp[l];
    EXPECT_GE(reduced_cost, -1e-7);
  }
}

TEST(Master, ZeroDemandGivesZeroObjective) {
  const auto net = make_net(8);
  MasterProblem master(net, uniform_demands(net, 0.0, 0.0));
  for (const auto& s : tdma_initial_columns(net)) master.add_column(s);
  const auto sol = master.solve();
  ASSERT_TRUE(sol.ok);
  EXPECT_NEAR(sol.objective_slots, 0.0, 1e-9);
}

TEST(Theorem1, FormulaMatchesHandComputation) {
  std::vector<video::LinkDemand> demands{{10.0, 20.0}, {30.0, 40.0}};
  std::vector<double> lhp{0.5, 0.25};
  std::vector<double> llp{0.1, 0.2};
  // dual value = 5 + 2 + 7.5 + 8 = 22.5; phi = -0.5 -> / 1.5.
  EXPECT_NEAR(theorem1_lower_bound(lhp, llp, demands, -0.5), 15.0, 1e-12);
}

TEST(Theorem1, PhiZeroGivesDualValue) {
  std::vector<video::LinkDemand> demands{{10.0, 0.0}};
  std::vector<double> lhp{0.5}, llp{0.0};
  EXPECT_NEAR(theorem1_lower_bound(lhp, llp, demands, 0.0), 5.0, 1e-12);
}

TEST(Theorem1, PositivePhiClampedToZero) {
  // Phi > 0 cannot occur at a true optimum but may appear from tolerance
  // dust; the bound must not exceed the dual value.
  std::vector<video::LinkDemand> demands{{10.0, 0.0}};
  std::vector<double> lhp{0.5}, llp{0.0};
  EXPECT_NEAR(theorem1_lower_bound(lhp, llp, demands, 0.3), 5.0, 1e-12);
}

TEST(Theorem1, MoreNegativePhiWeakensBound) {
  std::vector<video::LinkDemand> demands{{10.0, 10.0}};
  std::vector<double> lhp{1.0}, llp{1.0};
  const double weak = theorem1_lower_bound(lhp, llp, demands, -2.0);
  const double strong = theorem1_lower_bound(lhp, llp, demands, -0.1);
  EXPECT_LT(weak, strong);
}

}  // namespace
}  // namespace mmwave::core

#include "scan/channel_planner.hpp"

#include <gtest/gtest.h>

namespace wlm::scan {
namespace {

ChannelScanResult result_for(phy::Band band, int number, double util, int neighbors) {
  ChannelScanResult r;
  r.channel = *phy::ChannelPlan::us().find(band, number);
  r.counters.cycle_us = 1'000'000;
  r.counters.busy_us = static_cast<std::int64_t>(util * 1e6);
  r.neighbor_count = neighbors;
  return r;
}

TEST(Planner, PicksLeastUtilized) {
  const std::vector<ChannelScanResult> results{
      result_for(phy::Band::k2_4GHz, 1, 0.40, 2),
      result_for(phy::Band::k2_4GHz, 6, 0.10, 9),
      result_for(phy::Band::k2_4GHz, 11, 0.30, 1),
  };
  PlannerPolicy policy;
  const auto rec = recommend_channel(results, phy::Band::k2_4GHz, policy);
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->channel.number, 6);  // busy counter beats network count
  EXPECT_DOUBLE_EQ(rec->utilization, 0.10);
}

TEST(Planner, NaiveBaselinePicksFewestNetworks) {
  const std::vector<ChannelScanResult> results{
      result_for(phy::Band::k2_4GHz, 1, 0.40, 2),
      result_for(phy::Band::k2_4GHz, 6, 0.10, 9),
      result_for(phy::Band::k2_4GHz, 11, 0.30, 1),
  };
  PlannerPolicy policy;
  policy.strategy = PlannerStrategy::kFewestNetworks;
  const auto rec = recommend_channel(results, phy::Band::k2_4GHz, policy);
  ASSERT_TRUE(rec.has_value());
  // The naive pick lands on a channel that is actually 3x busier —
  // the paper's Figures 7/8 point.
  EXPECT_EQ(rec->channel.number, 11);
}

TEST(Planner, DfsExclusion) {
  const std::vector<ChannelScanResult> results{
      result_for(phy::Band::k5GHz, 36, 0.20, 3),
      result_for(phy::Band::k5GHz, 52, 0.01, 0),  // DFS
  };
  PlannerPolicy allow;
  EXPECT_EQ(recommend_channel(results, phy::Band::k5GHz, allow)->channel.number, 52);
  PlannerPolicy deny;
  deny.allow_dfs = false;
  EXPECT_EQ(recommend_channel(results, phy::Band::k5GHz, deny)->channel.number, 36);
}

TEST(Planner, HysteresisKeepsIncumbent) {
  const std::vector<ChannelScanResult> results{
      result_for(phy::Band::k2_4GHz, 1, 0.22, 2),
      result_for(phy::Band::k2_4GHz, 6, 0.20, 2),
  };
  PlannerPolicy policy;
  policy.min_improvement = 0.05;
  const auto current = phy::ChannelPlan::us().find(phy::Band::k2_4GHz, 1);
  const auto rec = recommend_channel(results, phy::Band::k2_4GHz, policy, current);
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->channel.number, 1);  // 2-point gain is below the threshold
  EXPECT_FALSE(rec->switched);
}

TEST(Planner, SwitchesPastHysteresisThreshold) {
  const std::vector<ChannelScanResult> results{
      result_for(phy::Band::k2_4GHz, 1, 0.50, 2),
      result_for(phy::Band::k2_4GHz, 6, 0.10, 2),
  };
  PlannerPolicy policy;
  const auto current = phy::ChannelPlan::us().find(phy::Band::k2_4GHz, 1);
  const auto rec = recommend_channel(results, phy::Band::k2_4GHz, policy, current);
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->channel.number, 6);
  EXPECT_TRUE(rec->switched);
}

TEST(Planner, EmptyAndWrongBand) {
  PlannerPolicy policy;
  EXPECT_FALSE(recommend_channel({}, phy::Band::k2_4GHz, policy).has_value());
  const std::vector<ChannelScanResult> only5{result_for(phy::Band::k5GHz, 36, 0.1, 1)};
  EXPECT_FALSE(recommend_channel(only5, phy::Band::k2_4GHz, policy).has_value());
}

TEST(Planner, RationaleMentionsStrategy) {
  const std::vector<ChannelScanResult> results{result_for(phy::Band::k2_4GHz, 6, 0.1, 2)};
  PlannerPolicy policy;
  const auto rec = recommend_channel(results, phy::Band::k2_4GHz, policy);
  ASSERT_TRUE(rec.has_value());
  EXPECT_NE(rec->rationale.find("least-utilization"), std::string::npos);
  EXPECT_NE(rec->rationale.find("ch6"), std::string::npos);
}

}  // namespace
}  // namespace wlm::scan

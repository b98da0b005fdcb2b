#include "phy/channel.hpp"

#include <gtest/gtest.h>

namespace wlm::phy {
namespace {

TEST(ChannelPlan, UsPlanCounts) {
  const auto& plan = ChannelPlan::us();
  EXPECT_EQ(plan.band_channels(Band::k2_4GHz).size(), 11u);  // channels 1-11
  EXPECT_EQ(plan.band_channels(Band::k5GHz).size(), 24u);
  EXPECT_EQ(plan.non_overlapping_2_4().size(), 3u);
}

TEST(ChannelPlan, FindByNumber) {
  const auto& plan = ChannelPlan::us();
  ASSERT_TRUE(plan.find(Band::k2_4GHz, 6).has_value());
  EXPECT_DOUBLE_EQ(plan.find(Band::k2_4GHz, 6)->center.mhz(), 2437.0);
  ASSERT_TRUE(plan.find(Band::k5GHz, 36).has_value());
  EXPECT_DOUBLE_EQ(plan.find(Band::k5GHz, 36)->center.mhz(), 5180.0);
  EXPECT_FALSE(plan.find(Band::k2_4GHz, 14).has_value());  // not in US plan
  EXPECT_FALSE(plan.find(Band::k5GHz, 144).has_value());
}

TEST(ChannelPlan, DfsFlagsFollowUniiBands) {
  const auto& plan = ChannelPlan::us();
  EXPECT_FALSE(plan.find(Band::k5GHz, 36)->requires_dfs);   // UNII-1
  EXPECT_TRUE(plan.find(Band::k5GHz, 52)->requires_dfs);    // UNII-2
  EXPECT_TRUE(plan.find(Band::k5GHz, 100)->requires_dfs);   // UNII-2e
  EXPECT_FALSE(plan.find(Band::k5GHz, 149)->requires_dfs);  // UNII-3
}

TEST(ChannelPlan, UniiClassification) {
  const auto& plan = ChannelPlan::us();
  EXPECT_EQ(plan.find(Band::k5GHz, 48)->unii, Unii::kUnii1);
  EXPECT_EQ(plan.find(Band::k5GHz, 64)->unii, Unii::kUnii2);
  EXPECT_EQ(plan.find(Band::k5GHz, 140)->unii, Unii::kUnii2Ext);
  EXPECT_EQ(plan.find(Band::k5GHz, 165)->unii, Unii::kUnii3);
  EXPECT_EQ(plan.find(Band::k2_4GHz, 1)->unii, Unii::kNone);
}

TEST(ChannelCenter, KnownFrequencies) {
  EXPECT_DOUBLE_EQ(channel_center(Band::k2_4GHz, 1).mhz(), 2412.0);
  EXPECT_DOUBLE_EQ(channel_center(Band::k2_4GHz, 11).mhz(), 2462.0);
  EXPECT_DOUBLE_EQ(channel_center(Band::k2_4GHz, 14).mhz(), 2484.0);
  EXPECT_DOUBLE_EQ(channel_center(Band::k5GHz, 149).mhz(), 5745.0);
}

TEST(ChannelOverlap, CoChannelIsFull) {
  const auto& plan = ChannelPlan::us();
  const auto ch6 = *plan.find(Band::k2_4GHz, 6);
  EXPECT_DOUBLE_EQ(channel_overlap(ch6, ch6), 1.0);
}

TEST(ChannelOverlap, AdjacentPartial) {
  const auto& plan = ChannelPlan::us();
  const auto ch1 = *plan.find(Band::k2_4GHz, 1);
  const auto ch2 = *plan.find(Band::k2_4GHz, 2);
  const auto ch5 = *plan.find(Band::k2_4GHz, 5);
  const auto ch6 = *plan.find(Band::k2_4GHz, 6);
  EXPECT_DOUBLE_EQ(channel_overlap(ch1, ch2), 0.75);  // 5 MHz apart, 20 MHz wide
  EXPECT_DOUBLE_EQ(channel_overlap(ch1, ch5), 0.0);   // 20 MHz apart: disjoint
  EXPECT_DOUBLE_EQ(channel_overlap(ch1, ch6), 0.0);   // the classic trio
  EXPECT_DOUBLE_EQ(channel_overlap(ch2, ch5), 0.25);  // 15 MHz apart
}

TEST(ChannelOverlap, FiveGhzChannelsDisjoint) {
  const auto& plan = ChannelPlan::us();
  const auto ch36 = *plan.find(Band::k5GHz, 36);
  const auto ch40 = *plan.find(Band::k5GHz, 40);
  EXPECT_DOUBLE_EQ(channel_overlap(ch36, ch40), 0.0);
}

TEST(ChannelOverlap, CrossBandIsZero) {
  const auto& plan = ChannelPlan::us();
  EXPECT_DOUBLE_EQ(
      channel_overlap(*plan.find(Band::k2_4GHz, 1), *plan.find(Band::k5GHz, 36)), 0.0);
}

TEST(AdjacentRejection, MonotonicInSeparation) {
  const auto& plan = ChannelPlan::us();
  const auto ch1 = *plan.find(Band::k2_4GHz, 1);
  double last = -1.0;
  for (int n : {1, 2, 3, 4, 5}) {
    const auto other = *plan.find(Band::k2_4GHz, n);
    const double rej = adjacent_channel_rejection_db(ch1, other);
    EXPECT_GE(rej, last) << "channel " << n;
    last = rej;
  }
  EXPECT_DOUBLE_EQ(adjacent_channel_rejection_db(ch1, ch1), 0.0);
  EXPECT_DOUBLE_EQ(adjacent_channel_rejection_db(ch1, *plan.find(Band::k2_4GHz, 5)), 200.0);
}

}  // namespace
}  // namespace wlm::phy

#include "scan/dfs.hpp"

#include <gtest/gtest.h>

namespace wlm::scan {
namespace {

const phy::Channel& ch(int number) {
  static phy::Channel c;
  c = *phy::ChannelPlan::us().find(phy::Band::k5GHz, number);
  return c;
}

TEST(Dfs, NonDfsChannelsAlwaysAvailable) {
  DfsMonitor monitor;
  Rng rng(1);
  EXPECT_TRUE(monitor.is_available(ch(36), SimTime::epoch()));
  // Occupying a non-DFS channel never fires radar.
  for (int i = 0; i < 1000; ++i) {
    EXPECT_FALSE(monitor.occupy(ch(36), SimTime::epoch(), Duration::hours(100), rng));
  }
}

TEST(Dfs, RadarBlocksForNonOccupancyPeriod) {
  DfsPolicy policy;
  policy.radar_prob_per_hour = 1.0;  // certain detection
  DfsMonitor monitor(policy);
  Rng rng(2);
  const auto radar = monitor.occupy(ch(52), SimTime::epoch(), Duration::hours(24), rng);
  ASSERT_TRUE(radar.has_value());
  EXPECT_FALSE(monitor.is_available(ch(52), *radar));
  EXPECT_FALSE(monitor.is_available(ch(52), *radar + Duration::minutes(29)));
  EXPECT_TRUE(monitor.is_available(ch(52), *radar + Duration::minutes(31)));
  EXPECT_EQ(monitor.detections(), 1u);
  // Other DFS channels are unaffected.
  EXPECT_TRUE(monitor.is_available(ch(100), *radar));
}

TEST(Dfs, DetectionRateTracksPolicy) {
  DfsPolicy policy;
  policy.radar_prob_per_hour = 0.1;
  DfsMonitor monitor(policy);
  Rng rng(3);
  int detections = 0;
  const int trials = 20'000;
  for (int i = 0; i < trials; ++i) {
    if (monitor.occupy(ch(120), SimTime::epoch() + Duration::days(i), Duration::hours(1),
                       rng)) {
      ++detections;
    }
  }
  EXPECT_NEAR(static_cast<double>(detections) / trials, 0.1, 0.01);
}

namespace agent {

std::vector<ChannelScanResult> flat_scan(double util_52 = 0.05) {
  std::vector<ChannelScanResult> scan;
  for (const auto& channel : phy::ChannelPlan::us().band_channels(phy::Band::k5GHz)) {
    ChannelScanResult r;
    r.channel = channel;
    r.counters.cycle_us = 1'000'000;
    r.counters.busy_us =
        static_cast<std::int64_t>((channel.number == 52 ? util_52 : 0.10) * 1e6);
    scan.push_back(r);
  }
  return scan;
}

}  // namespace agent

TEST(AutoChannel, StaysPutWhenQuiet) {
  AutoChannelAgent ap(*phy::ChannelPlan::us().find(phy::Band::k5GHz, 36), PlannerPolicy{},
                      DfsPolicy{});
  Rng rng(5);
  // Channel 36 is not the quietest (52 is), but hysteresis defaults apply
  // only within min_improvement; 5 points should trigger a switch.
  const bool switched = ap.tick(SimTime::epoch(), Duration::minutes(3),
                                agent::flat_scan(0.02), rng);
  EXPECT_TRUE(switched);
  EXPECT_EQ(ap.current().number, 52);
}

TEST(AutoChannel, RadarEvacuatesImmediately) {
  DfsPolicy hot;
  hot.radar_prob_per_hour = 1.0;
  AutoChannelAgent ap(*phy::ChannelPlan::us().find(phy::Band::k5GHz, 52), PlannerPolicy{},
                      hot);
  Rng rng(7);
  const bool switched =
      ap.tick(SimTime::epoch(), Duration::hours(10), agent::flat_scan(), rng);
  EXPECT_TRUE(switched);
  EXPECT_NE(ap.current().number, 52);
  EXPECT_EQ(ap.radar_evacuations(), 1u);
  EXPECT_GE(ap.switches(), 1u);
}

TEST(AutoChannel, FleetDriftsAwayFromDfsUnderRadarPressure) {
  // The Figure 2 mechanism: with realistic radar pressure, auto-channel
  // fleets end up concentrated in the DFS-free bands.
  DfsPolicy pressure;
  pressure.radar_prob_per_hour = 0.05;
  Rng rng(11);
  int on_dfs_start = 0;
  int on_dfs_end = 0;
  for (int a = 0; a < 200; ++a) {
    // Start everyone on a DFS channel.
    AutoChannelAgent ap(*phy::ChannelPlan::us().find(phy::Band::k5GHz, 100),
                        PlannerPolicy{}, pressure);
    ++on_dfs_start;
    SimTime t;
    for (int tick = 0; tick < 24 * 7; ++tick) {
      // Uniformly busy world: planning alone has no preference.
      auto scan = agent::flat_scan(0.10);
      (void)ap.tick(t, Duration::hours(1), scan, rng);
      t += Duration::hours(1);
    }
    on_dfs_end += ap.current().requires_dfs;
  }
  EXPECT_EQ(on_dfs_start, 200);
  EXPECT_LT(on_dfs_end, 120);  // radar churn pushed a big share off DFS
}

}  // namespace
}  // namespace wlm::scan

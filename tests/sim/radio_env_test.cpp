#include "sim/radio_env.hpp"

#include <gtest/gtest.h>

#include "phy/propagation.hpp"
#include "scan/scanner.hpp"

namespace wlm::sim {
namespace {

deploy::NeighborInfo neighbor(int channel, double rssi, phy::Band band = phy::Band::k2_4GHz) {
  deploy::NeighborInfo n;
  n.band = band;
  n.channel = channel;
  n.rssi_dbm = rssi;
  n.ssid_count = 1;
  n.day_duty = 0.10;
  n.night_duty = 0.02;
  return n;
}

const phy::Channel& ch(phy::Band band, int number) {
  static phy::Channel result;
  result = *phy::ChannelPlan::us().find(band, number);
  return result;
}

TEST(RadioEnv, CoChannelNeighborIsDecodableWifi) {
  deploy::NeighborEnvironment env;
  env.neighbors.push_back(neighbor(6, -70.0));
  RadioEnvironment radio(&env, {});
  const auto activity = radio.activity_on(ch(phy::Band::k2_4GHz, 6), 12.0);
  // One neighbor yields a beacon source plus a (bursty) data source.
  ASSERT_EQ(activity.sources.size(), 2u);
  for (const auto& src : activity.sources) {
    EXPECT_EQ(src.kind, mac::SourceKind::kWifi);
    EXPECT_GT(src.plcp_decode_prob, 0.9);
  }
  EXPECT_DOUBLE_EQ(activity.sources[0].window_active_prob, 1.0);  // beacons
  EXPECT_LT(activity.sources[1].window_active_prob, 1.0);         // data bursts
  EXPECT_EQ(activity.neighbor_count, 1);
}

TEST(RadioEnv, AdjacentChannelIsCorruptEnergy) {
  deploy::NeighborEnvironment env;
  env.neighbors.push_back(neighbor(6, -60.0));
  RadioEnvironment radio(&env, {});
  const auto activity = radio.activity_on(ch(phy::Band::k2_4GHz, 8), 12.0);
  ASSERT_EQ(activity.sources.size(), 2u);
  for (const auto& src : activity.sources) {
    EXPECT_EQ(src.kind, mac::SourceKind::kWifiCorrupt);
  }
  EXPECT_EQ(activity.neighbor_count, 0);  // not decodable here
}

TEST(RadioEnv, DisjointChannelInvisible) {
  deploy::NeighborEnvironment env;
  env.neighbors.push_back(neighbor(1, -50.0));
  RadioEnvironment radio(&env, {});
  const auto activity = radio.activity_on(ch(phy::Band::k2_4GHz, 11), 12.0);
  EXPECT_TRUE(activity.sources.empty());
}

TEST(RadioEnv, DayDutyExceedsNight) {
  deploy::NeighborEnvironment env;
  env.neighbors.push_back(neighbor(6, -70.0));
  RadioEnvironment radio(&env, {});
  const auto day = radio.activity_on(ch(phy::Band::k2_4GHz, 6), 10.0);
  const auto night = radio.activity_on(ch(phy::Band::k2_4GHz, 6), 22.0);
  auto total_duty = [](const scan::ChannelActivity& a) {
    double d = 0.0;
    for (const auto& s : a.sources) d += s.duty_cycle;
    return d;
  };
  EXPECT_GT(total_duty(day), total_duty(night));
}

TEST(RadioEnv, BeaconDutyAlwaysPresent) {
  deploy::NeighborEnvironment env;
  auto quiet = neighbor(6, -70.0);
  quiet.day_duty = 0.0;
  quiet.night_duty = 0.0;
  env.neighbors.push_back(quiet);
  RadioEnvironment radio(&env, {});
  const auto activity = radio.activity_on(ch(phy::Band::k2_4GHz, 6), 3.0);
  EXPECT_GT(activity.sources[0].duty_cycle, 0.003);  // one beacon per 102.4 ms
}

TEST(RadioEnv, LegacyBeaconsCostMoreDuty) {
  deploy::NeighborEnvironment env;
  auto legacy = neighbor(6, -70.0);
  legacy.legacy_11b = true;
  legacy.day_duty = 0.0;
  env.neighbors.push_back(legacy);
  auto modern = neighbor(6, -70.0);
  modern.day_duty = 0.0;
  deploy::NeighborEnvironment env2;
  env2.neighbors.push_back(modern);
  RadioEnvironment r1(&env, {});
  RadioEnvironment r2(&env2, {});
  EXPECT_GT(r1.activity_on(ch(phy::Band::k2_4GHz, 6), 12.0).sources[0].duty_cycle,
            5.0 * r2.activity_on(ch(phy::Band::k2_4GHz, 6), 12.0).sources[0].duty_cycle);
}

TEST(RadioEnv, FleetPeersAppearCoChannel) {
  deploy::NeighborEnvironment env;
  FleetPeer peer;
  peer.channel_24 = 6;
  peer.rx_power_24_dbm = -55.0;
  peer.tx_duty_24 = 0.05;
  const std::vector<FleetPeer> peers{peer};
  RadioEnvironment radio(&env, peers);
  const auto activity = radio.activity_on(ch(phy::Band::k2_4GHz, 6), 12.0);
  ASSERT_EQ(activity.sources.size(), 1u);
  EXPECT_EQ(activity.sources[0].kind, mac::SourceKind::kWifi);
  EXPECT_GT(activity.sources[0].duty_cycle, 0.05);
}

TEST(RadioEnv, NonWifiOnlyNearItsChannel) {
  deploy::NeighborEnvironment env;
  deploy::NonWifiInterferer mw;
  mw.band = phy::Band::k2_4GHz;
  mw.channel = 8;
  mw.rssi_dbm = -55.0;
  mw.day_duty = 0.02;
  env.interferers.push_back(mw);
  RadioEnvironment radio(&env, {});
  EXPECT_EQ(radio.activity_on(ch(phy::Band::k2_4GHz, 8), 12.0).sources.size(), 1u);
  EXPECT_EQ(radio.activity_on(ch(phy::Band::k2_4GHz, 1), 12.0).sources.size(), 0u);
}

TEST(RadioEnv, AudibleCountsRespectFloor) {
  deploy::NeighborEnvironment env;
  env.neighbors.push_back(neighbor(1, -70.0));
  env.neighbors.push_back(neighbor(6, -93.5));  // below the decode floor
  auto hotspot = neighbor(11, -80.0);
  hotspot.is_hotspot = true;
  env.neighbors.push_back(hotspot);
  env.neighbors.push_back(neighbor(36, -70.0, phy::Band::k5GHz));
  RadioEnvironment radio(&env, {});
  EXPECT_EQ(radio.audible_neighbors(phy::Band::k2_4GHz), 2);
  EXPECT_EQ(radio.audible_hotspots(phy::Band::k2_4GHz), 1);
  EXPECT_EQ(radio.audible_neighbors(phy::Band::k5GHz), 1);
}

TEST(RadioEnv, ActivitiesAllCoversPlan) {
  deploy::NeighborEnvironment env;
  RadioEnvironment radio(&env, {});
  const auto all = radio.activities_all(phy::ChannelPlan::us(), 12.0);
  EXPECT_EQ(all.size(), phy::ChannelPlan::us().channels().size());
}

TEST(IsDaytime, BusinessHours) {
  EXPECT_TRUE(is_daytime(10.0));
  EXPECT_TRUE(is_daytime(14.0));
  EXPECT_FALSE(is_daytime(22.0));
  EXPECT_FALSE(is_daytime(3.0));
}

}  // namespace
}  // namespace wlm::sim

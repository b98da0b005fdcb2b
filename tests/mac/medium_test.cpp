#include "mac/medium.hpp"

#include <gtest/gtest.h>

#include "phy/propagation.hpp"

namespace wlm::mac {
namespace {

ActivitySource wifi_source(double rx_dbm, double duty, double plcp = 1.0) {
  ActivitySource s;
  s.kind = SourceKind::kWifi;
  s.rx_power = PowerDbm{rx_dbm};
  s.duty_cycle = duty;
  s.plcp_decode_prob = plcp;
  return s;
}

TEST(Counters, UtilizationAndDecodableMath) {
  ChannelCounters c;
  c.cycle_us = 1000;
  c.busy_us = 250;
  c.rx_frame_us = 200;
  EXPECT_DOUBLE_EQ(c.utilization(), 0.25);
  EXPECT_DOUBLE_EQ(c.decodable_fraction(), 0.8);
}

TEST(Counters, EmptySafe) {
  ChannelCounters c;
  EXPECT_DOUBLE_EQ(c.utilization(), 0.0);
  EXPECT_DOUBLE_EQ(c.decodable_fraction(), 0.0);
}

TEST(Counters, Accumulate) {
  ChannelCounters a;
  a.cycle_us = 100;
  a.busy_us = 10;
  ChannelCounters b;
  b.cycle_us = 100;
  b.busy_us = 30;
  b.rx_frame_us = 20;
  a += b;
  EXPECT_EQ(a.cycle_us, 200);
  EXPECT_EQ(a.busy_us, 40);
  EXPECT_EQ(a.rx_frame_us, 20);
}

TEST(MediumObserver, SensesWifiAbovePreambleThreshold) {
  const MediumObserver obs(phy::noise_floor(20.0));
  EXPECT_TRUE(obs.senses(wifi_source(-80.0, 0.1)));
  EXPECT_FALSE(obs.senses(wifi_source(-85.0, 0.1)));  // below -82 dBm
}

TEST(MediumObserver, NonWifiNeedsMoreEnergy) {
  const MediumObserver obs(phy::noise_floor(20.0));
  ActivitySource bt;
  bt.kind = SourceKind::kNonWifi;
  bt.duty_cycle = 0.1;
  bt.rx_power = PowerDbm{-80.0};
  EXPECT_FALSE(obs.senses(bt));  // a WiFi signal at -80 would trip CCA
  bt.rx_power = PowerDbm{-60.0};
  EXPECT_TRUE(obs.senses(bt));   // above the -62 dBm energy-detect line
}

TEST(MediumObserver, NothingBelowNoiseSensed) {
  const MediumObserver obs(PowerDbm{-75.0});  // elevated noise floor
  EXPECT_FALSE(obs.senses(wifi_source(-72.0, 0.5)));  // < noise + 6
}

TEST(MediumObserver, SingleSourceDutyIsUtilization) {
  const MediumObserver obs(phy::noise_floor(20.0));
  const auto c = obs.observe(Duration::minutes(1), {wifi_source(-70.0, 0.25)});
  EXPECT_EQ(c.cycle_us, 60'000'000);
  EXPECT_NEAR(c.utilization(), 0.25, 1e-9);
  EXPECT_NEAR(c.decodable_fraction(), 1.0, 1e-9);
}

TEST(MediumObserver, IndependentSourcesCombine) {
  const MediumObserver obs(phy::noise_floor(20.0));
  const auto c = obs.observe(Duration::minutes(1),
                             {wifi_source(-70.0, 0.2), wifi_source(-65.0, 0.2)});
  EXPECT_NEAR(c.utilization(), 1.0 - 0.8 * 0.8, 1e-6);
}

TEST(MediumObserver, CorruptWifiNotDecodable) {
  const MediumObserver obs(phy::noise_floor(20.0));
  ActivitySource corrupt;
  corrupt.kind = SourceKind::kWifiCorrupt;
  corrupt.rx_power = PowerDbm{-55.0};
  corrupt.duty_cycle = 0.3;
  const auto c = obs.observe(Duration::minutes(1), {corrupt});
  EXPECT_NEAR(c.utilization(), 0.3, 1e-9);
  EXPECT_DOUBLE_EQ(c.decodable_fraction(), 0.0);
}

TEST(MediumObserver, MixedDecodabilityIsShareWeighted) {
  const MediumObserver obs(phy::noise_floor(20.0));
  ActivitySource corrupt;
  corrupt.kind = SourceKind::kNonWifi;
  corrupt.rx_power = PowerDbm{-50.0};
  corrupt.duty_cycle = 0.2;
  const auto c =
      obs.observe(Duration::minutes(1), {wifi_source(-70.0, 0.2), corrupt});
  EXPECT_NEAR(c.decodable_fraction(), 0.5, 0.01);  // equal duty, half decodable
}

TEST(MediumObserver, OwnTxReducesListenTime) {
  const MediumObserver obs(phy::noise_floor(20.0));
  const auto c = obs.observe(Duration::seconds(10), {wifi_source(-70.0, 0.5)}, 0.4);
  EXPECT_EQ(c.tx_us, 4'000'000);
  // Busy time is measured over the remaining 6 seconds.
  EXPECT_NEAR(static_cast<double>(c.busy_us), 0.5 * 6e6, 1.0);
}

TEST(MediumObserver, SampledConvergesToExpected) {
  const MediumObserver obs(phy::noise_floor(20.0));
  const std::vector<ActivitySource> sources{wifi_source(-70.0, 0.3),
                                            wifi_source(-75.0, 0.1)};
  Rng rng(99);
  ChannelCounters total;
  for (int i = 0; i < 3000; ++i) {
    total += obs.observe_sampled(Duration::millis(5), sources, rng);
  }
  const auto expected = obs.observe(Duration::millis(5), sources);
  EXPECT_NEAR(total.utilization(), expected.utilization(), 0.02);
}

TEST(MediumObserver, DutyClamped) {
  const MediumObserver obs(phy::noise_floor(20.0));
  const auto c = obs.observe(Duration::seconds(1), {wifi_source(-70.0, 5.0)});
  EXPECT_LE(c.busy_us, c.cycle_us);
  EXPECT_NEAR(c.utilization(), 1.0, 1e-9);
}

TEST(MediumObserver, SampledSkipsUnsensedSourcesWithoutDrawing) {
  // The MR18 scanner drops a channel's unsensed sources once per scan and
  // samples every dwell over what is left. That is only the same scan if an
  // unsensed source costs a dwell no draw: the full list and the sensed
  // list must give the same counters and leave the generator in one state.
  const MediumObserver obs(phy::noise_floor(20.0));
  ActivitySource bursty = wifi_source(-72.0, 0.2, 0.6);
  bursty.window_active_prob = 0.3;
  ActivitySource corrupt = wifi_source(-60.0, 0.15);
  corrupt.kind = SourceKind::kWifiCorrupt;
  ActivitySource microwave;
  microwave.kind = SourceKind::kNonWifi;
  microwave.rx_power = PowerDbm{-55.0};
  microwave.duty_cycle = 0.4;
  microwave.window_active_prob = 0.5;
  ActivitySource faint_bt = microwave;  // non-WiFi under energy detect
  faint_bt.rx_power = PowerDbm{-80.0};
  const std::vector<ActivitySource> sensed{wifi_source(-70.0, 0.3, 0.8), bursty, corrupt,
                                           microwave};
  const std::vector<ActivitySource> mixed{
      wifi_source(-90.0, 0.9),  // under the preamble threshold
      sensed[0],
      faint_bt,
      bursty,
      wifi_source(-99.0, 1.0),  // under the noise floor
      corrupt,
      microwave,
      wifi_source(-85.0, 0.5, 0.1),
  };
  for (const auto& s : sensed) ASSERT_TRUE(obs.senses(s));
  Rng a(2015);
  Rng b(2015);
  for (int dwell = 0; dwell < 200; ++dwell) {
    const auto from_sensed = obs.observe_sampled(Duration::millis(5), sensed, a);
    const auto from_mixed = obs.observe_sampled(Duration::millis(5), mixed, b);
    ASSERT_EQ(from_sensed.cycle_us, from_mixed.cycle_us) << "dwell " << dwell;
    ASSERT_EQ(from_sensed.busy_us, from_mixed.busy_us) << "dwell " << dwell;
    ASSERT_EQ(from_sensed.rx_frame_us, from_mixed.rx_frame_us) << "dwell " << dwell;
    ASSERT_EQ(from_sensed.tx_us, from_mixed.tx_us) << "dwell " << dwell;
    ASSERT_TRUE(a.state() == b.state()) << "dwell " << dwell;
  }
}

}  // namespace
}  // namespace wlm::mac

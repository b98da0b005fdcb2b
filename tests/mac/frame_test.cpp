#include "mac/frame.hpp"

#include <gtest/gtest.h>

namespace wlm::mac {
namespace {

TEST(Frame, BeaconAirtimes) {
  // Paper SS4.1: 2.592 ms for 802.11b beacons, ~0.42 ms for OFDM.
  EXPECT_EQ(make_beacon(MacAddress{}, true).airtime_us(), 2592);
  const auto ofdm_us = make_beacon(MacAddress{}, false).airtime_us();
  EXPECT_GE(ofdm_us, 300);
  EXPECT_LE(ofdm_us, 450);
}

TEST(Frame, MacOverheadByType) {
  EXPECT_EQ(mac_overhead_bytes(FrameType::kAck), 14);
  EXPECT_EQ(mac_overhead_bytes(FrameType::kQosData), 30);
  EXPECT_EQ(mac_overhead_bytes(FrameType::kData), 28);
}

TEST(Frame, BeaconIntervalConstant) {
  EXPECT_EQ(kBeaconIntervalUs, 102'400);  // 100 TUs
}

}  // namespace
}  // namespace wlm::mac

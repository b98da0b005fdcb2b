#include "mac/beacon.hpp"

#include <gtest/gtest.h>

namespace wlm::mac {
namespace {

TEST(BeaconDuty, LegacyCostsSixTimesMore) {
  const auto legacy = static_cast<double>(beacon_airtime_us(true));
  const auto modern = static_cast<double>(beacon_airtime_us(false));
  EXPECT_GT(legacy / modern, 5.0);
  EXPECT_DOUBLE_EQ(legacy, 2592.0);
}

}  // namespace
}  // namespace wlm::mac

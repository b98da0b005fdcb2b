#include "core/units.hpp"

#include <gtest/gtest.h>

namespace wlm {
namespace {

TEST(PowerDbm, ConvertsToMilliwatts) {
  EXPECT_DOUBLE_EQ(PowerDbm{0.0}.milliwatts(), 1.0);
  EXPECT_DOUBLE_EQ(PowerDbm{10.0}.milliwatts(), 10.0);
  EXPECT_NEAR(PowerDbm{-30.0}.milliwatts(), 0.001, 1e-12);
}

TEST(PowerDbm, RoundTripsThroughMilliwatts) {
  for (double dbm : {-90.0, -62.0, -30.0, 0.0, 23.0}) {
    EXPECT_NEAR(PowerDbm::from_milliwatts(PowerDbm{dbm}.milliwatts()).dbm(), dbm, 1e-9);
  }
}

TEST(PowerDbm, GainAndLossAreDb) {
  const PowerDbm p{-40.0};
  EXPECT_DOUBLE_EQ((p + 3.0).dbm(), -37.0);
  EXPECT_DOUBLE_EQ((p - 20.0).dbm(), -60.0);
  EXPECT_DOUBLE_EQ(PowerDbm{-40.0} - PowerDbm{-70.0}, 30.0);
}

TEST(PowerDbm, DefaultIsNoSignal) {
  EXPECT_LT(PowerDbm{}.dbm(), -150.0);
}

TEST(FrequencyMhz, BandClassification) {
  EXPECT_TRUE(FrequencyMhz{2437.0}.is_2_4ghz());
  EXPECT_FALSE(FrequencyMhz{2437.0}.is_5ghz());
  EXPECT_TRUE(FrequencyMhz{5250.0}.is_5ghz());
  EXPECT_FALSE(FrequencyMhz{5250.0}.is_2_4ghz());
  EXPECT_DOUBLE_EQ(FrequencyMhz{2437.0}.hz(), 2.437e9);
}

TEST(DataRate, ExactKbpsForHalfMegabitRates) {
  EXPECT_EQ(DataRate::mbps(5.5).kbps(), 5500);
  EXPECT_EQ(DataRate::mbps(1).kbps(), 1000);
  EXPECT_DOUBLE_EQ(DataRate::mbps(54).as_mbps(), 54.0);
}

TEST(DataRate, MicrosForBitsCeils) {
  // 480 bits at 1 Mb/s is exactly 480 us.
  EXPECT_EQ(DataRate::mbps(1).micros_for_bits(480), 480);
  // 481 bits must round up.
  EXPECT_EQ(DataRate::mbps(1).micros_for_bits(481), 481);
  // 100 bits at 6 Mb/s: 16.67 -> 17 us.
  EXPECT_EQ(DataRate::mbps(6).micros_for_bits(100), 17);
}

TEST(Bytes, HumanFormatting) {
  EXPECT_EQ(Bytes::gb(1.2).human(), "1.20 GB");
  EXPECT_EQ(Bytes::mb(367).human(), "367 MB");
  EXPECT_EQ(Bytes::tb(1.95).human(), "1.95 TB");
  EXPECT_EQ(Bytes{512}.human(), "512 B");
}

TEST(Bytes, Arithmetic) {
  Bytes b = Bytes::mb(1);
  b += Bytes::mb(2);
  EXPECT_EQ(b.count(), 3'000'000);
  EXPECT_EQ((Bytes::gb(1) - Bytes::mb(250)).count(), 750'000'000);
  EXPECT_NEAR(Bytes::tb(2).as_gb(), 2000.0, 1e-9);
}

TEST(Ratio, ClampsToUnitInterval) {
  EXPECT_DOUBLE_EQ(Ratio{1.5}.value(), 1.0);
  EXPECT_DOUBLE_EQ(Ratio{-0.5}.value(), 0.0);
  EXPECT_DOUBLE_EQ(Ratio{0.25}.percent(), 25.0);
}

TEST(PercentIncrease, MatchesPaperFormatting) {
  EXPECT_EQ(percent_increase(100.0, 162.0), "62%");
  EXPECT_EQ(percent_increase(100.0, 90.8), "-9.2%");
  EXPECT_EQ(percent_increase(0.0, 10.0), "n/a");
  EXPECT_EQ(percent_increase(100.0, 711.0), "611%");
}

}  // namespace
}  // namespace wlm

#include "phy/modulation.hpp"

#include <gtest/gtest.h>

namespace wlm::phy {
namespace {

TEST(RateTable, AllRatesPresent) {
  EXPECT_EQ(all_rates().size(), 12u);
  EXPECT_EQ(rate_info(Modulation::kDsss1).rate.kbps(), 1000);
  EXPECT_EQ(rate_info(Modulation::kCck5_5).rate.kbps(), 5500);
  EXPECT_EQ(rate_info(Modulation::kOfdm54).rate.kbps(), 54000);
}

TEST(Airtime, LinkProbeAt1Mbps) {
  // 60 bytes at 1 Mb/s DSSS: 192 us PLCP + 480 us payload.
  EXPECT_EQ(airtime_us(Modulation::kDsss1, 60, true), 672);
}

TEST(Airtime, LinkProbeAt6Mbps) {
  // 60 bytes OFDM-6: 20 us PLCP + ceil((16+6+480)/24) = 21 symbols * 4 us.
  EXPECT_EQ(airtime_us(Modulation::kOfdm6, 60), 104);
}

TEST(Airtime, LegacyBeaconIs2592Us) {
  // Paper SS4.1: 802.11b beacons occupy 2.592 ms.
  EXPECT_EQ(airtime_us(Modulation::kDsss1, 300, true), 2592);
}

TEST(Airtime, ShortPreambleHalves) {
  const auto long_pre = airtime_us(Modulation::kDsss2, 100, true);
  const auto short_pre = airtime_us(Modulation::kDsss2, 100, false);
  EXPECT_EQ(long_pre - short_pre, 96);  // 192 - 96 us of PLCP
}

TEST(Airtime, OfdmSymbolPadding) {
  // 1 payload byte still costs a whole symbol.
  EXPECT_EQ(airtime_us(Modulation::kOfdm6, 1), 20 + 2 * 4);
  // Higher rates pack more bits per symbol -> shorter frames.
  EXPECT_LT(airtime_us(Modulation::kOfdm54, 1500), airtime_us(Modulation::kOfdm6, 1500));
}

class PerMonotonicity : public ::testing::TestWithParam<Modulation> {};

TEST_P(PerMonotonicity, PerDecreasesWithSinr) {
  const Modulation m = GetParam();
  double last = 1.1;
  for (double sinr = -5.0; sinr <= 40.0; sinr += 1.0) {
    const double per = packet_error_rate(m, sinr, 1500);
    EXPECT_LE(per, last + 1e-9) << "sinr " << sinr;
    EXPECT_GE(per, 0.0);
    EXPECT_LE(per, 1.0);
    last = per;
  }
  // Asymptotes: hopeless at very low SINR, clean at very high.
  EXPECT_GT(packet_error_rate(m, -10.0, 1500), 0.95);
  EXPECT_LT(packet_error_rate(m, 40.0, 1500), 0.01);
}

INSTANTIATE_TEST_SUITE_P(AllModulations, PerMonotonicity,
                         ::testing::ValuesIn([] {
                           std::vector<Modulation> ms;
                           for (const auto& r : all_rates()) ms.push_back(r.modulation);
                           return ms;
                         }()));

TEST(Per, LargerFramesFailMore) {
  const double sinr = 8.0;
  EXPECT_LT(packet_error_rate(Modulation::kCck11, sinr, 60),
            packet_error_rate(Modulation::kCck11, sinr, 1500));
}

TEST(Per, RobustRatesWinAtLowSinr) {
  const double sinr = 6.0;
  EXPECT_LT(packet_error_rate(Modulation::kDsss1, sinr, 500),
            packet_error_rate(Modulation::kOfdm54, sinr, 500));
}

TEST(PlcpDecode, SaturatesHighAndFailsLow) {
  EXPECT_GT(plcp_decode_probability(20.0), 0.99);
  EXPECT_LT(plcp_decode_probability(-8.0), 0.5);
  // Monotone non-decreasing.
  double last = 0.0;
  for (double sinr = -10.0; sinr <= 25.0; sinr += 0.5) {
    const double p = plcp_decode_probability(sinr);
    EXPECT_GE(p, last - 1e-12);
    last = p;
  }
}

}  // namespace
}  // namespace wlm::phy

#include "deploy/capabilities.hpp"

#include <gtest/gtest.h>

namespace wlm::deploy {
namespace {

TEST(Capabilities, StreamsFromBits) {
  Capabilities c;
  EXPECT_EQ(c.spatial_streams(), 1);
  c.bits |= kCapTwoStreams;
  EXPECT_EQ(c.spatial_streams(), 2);
  c.bits |= kCapFourStreams;
  EXPECT_EQ(c.spatial_streams(), 4);  // highest wins
}

TEST(CapabilityTargets, MatchTable4) {
  const auto t14 = capability_targets(Epoch::kJan2014);
  EXPECT_DOUBLE_EQ(t14.p_11ac, 0.025);
  EXPECT_DOUBLE_EQ(t14.p_5ghz, 0.489);
  const auto t15 = capability_targets(Epoch::kJan2015);
  EXPECT_DOUBLE_EQ(t15.p_11ac, 0.180);
  EXPECT_DOUBLE_EQ(t15.p_40mhz, 0.638);
  // July interpolates.
  const auto mid = capability_targets(Epoch::kJul2014);
  EXPECT_NEAR(mid.p_11ac, (0.025 + 0.180) / 2.0, 1e-12);
}

class CapabilityMarginals : public ::testing::TestWithParam<Epoch> {};

TEST_P(CapabilityMarginals, SampledFractionsHitTargets) {
  const Epoch epoch = GetParam();
  const auto targets = capability_targets(epoch);
  Rng rng(7);
  const int n = 60'000;
  int n11n = 0;
  int n5 = 0;
  int n40 = 0;
  int nac = 0;
  int ss2 = 0;
  int ss3 = 0;
  int ss4 = 0;
  for (int i = 0; i < n; ++i) {
    const auto c = sample_capabilities(epoch, rng);
    n11n += c.has(kCap11n);
    n5 += c.has(kCap5GHz);
    n40 += c.has(kCap40MHz);
    nac += c.has(kCap11ac);
    ss2 += c.has(kCapTwoStreams);
    ss3 += c.has(kCapThreeStreams);
    ss4 += c.has(kCapFourStreams);
  }
  const double dn = n;
  EXPECT_NEAR(n11n / dn, targets.p_11n, 0.01);
  EXPECT_NEAR(n5 / dn, targets.p_5ghz, 0.01);
  EXPECT_NEAR(n40 / dn, targets.p_40mhz, 0.015);
  EXPECT_NEAR(nac / dn, targets.p_11ac, 0.01);
  EXPECT_NEAR(ss2 / dn, targets.p_two_streams, 0.01);
  EXPECT_NEAR(ss3 / dn, targets.p_three_streams, 0.005);
  EXPECT_NEAR(ss4 / dn, targets.p_four_streams, 0.005);
}

INSTANTIATE_TEST_SUITE_P(BothSurveyWeeks, CapabilityMarginals,
                         ::testing::Values(Epoch::kJan2014, Epoch::kJan2015));

TEST(CapabilitySampling, ImplicationsHold) {
  Rng rng(13);
  for (int i = 0; i < 20'000; ++i) {
    const auto c = sample_capabilities(Epoch::kJan2015, rng);
    if (c.has(kCap11ac)) {
      EXPECT_TRUE(c.has(kCap5GHz));
      EXPECT_TRUE(c.has(kCap11n));
      EXPECT_TRUE(c.has(kCap40MHz));
    }
    if (c.spatial_streams() > 1) {
      EXPECT_TRUE(c.has(kCap11n));
    }
    if (c.has(kCap40MHz)) {
      EXPECT_TRUE(c.has(kCap11n));
    }
  }
}

TEST(CapabilitySampling, GrowthDirectionAcrossEpochs) {
  Rng rng(17);
  auto frac_ac = [&](Epoch e) {
    int count = 0;
    for (int i = 0; i < 30'000; ++i) count += sample_capabilities(e, rng).has(kCap11ac);
    return count / 30'000.0;
  };
  EXPECT_LT(frac_ac(Epoch::kJan2014), frac_ac(Epoch::kJan2015));
}

}  // namespace
}  // namespace wlm::deploy

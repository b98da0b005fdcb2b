#include "fault/spec.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace wlm::fault {
namespace {

TEST(FaultSpec, DefaultIsDisabled) {
  EXPECT_FALSE(FaultSpec{}.enabled());
}

TEST(FaultSpec, QueueLimitAloneDoesNotEnable) {
  FaultSpec spec;
  spec.tunnel_queue_limit = 8;
  EXPECT_FALSE(spec.enabled());
}

TEST(FaultSpec, EachDisruptionKnobEnables) {
  auto enabled_with = [](auto set) {
    FaultSpec spec;
    set(spec);
    return spec.enabled();
  };
  EXPECT_TRUE(enabled_with([](FaultSpec& s) { s.flap_fraction = 0.1; }));
  EXPECT_TRUE(enabled_with([](FaultSpec& s) { s.outage_rate_per_week = 1.0; }));
  EXPECT_TRUE(enabled_with([](FaultSpec& s) { s.reboot_rate_per_week = 1.0; }));
  EXPECT_TRUE(enabled_with([](FaultSpec& s) { s.firmware_wave_fraction = 0.5; }));
  EXPECT_TRUE(enabled_with([](FaultSpec& s) { s.corrupt_probability = 0.01; }));
  EXPECT_TRUE(enabled_with([](FaultSpec& s) { s.oom_neighbor_threshold = 400; }));
  EXPECT_TRUE(enabled_with([](FaultSpec& s) { s.skyscraper_fraction = 0.05; }));
}

TEST(FaultSpec, ClampedBringsKnobsIntoRange) {
  FaultSpec spec;
  spec.flap_fraction = 1.7;
  spec.outage_rate_per_week = -3.0;
  spec.outage_mean_hours = -1.0;
  spec.corrupt_probability = std::nan("");
  spec.firmware_wave_hour = 500.0;
  spec.tunnel_queue_limit = 0;
  const FaultSpec clamped = spec.clamped();
  EXPECT_DOUBLE_EQ(clamped.flap_fraction, 1.0);
  EXPECT_DOUBLE_EQ(clamped.outage_rate_per_week, 0.0);
  EXPECT_DOUBLE_EQ(clamped.outage_mean_hours, FaultSpec{}.outage_mean_hours);
  EXPECT_DOUBLE_EQ(clamped.corrupt_probability, 0.0);
  EXPECT_DOUBLE_EQ(clamped.firmware_wave_hour, FaultSpec{}.firmware_wave_hour);
  EXPECT_EQ(clamped.tunnel_queue_limit, 1u);
}

TEST(FaultSpec, ParseFullSpec) {
  const auto spec = FaultSpec::parse(
      "flap=0.2,outage_rate=2,outage_hours=36,reboot_rate=1.5,fw_wave=0.8,"
      "fw_hour=61,corrupt=0.02,oom_threshold=450,skyscraper=0.1,"
      "skyscraper_neighbors=700,queue=128");
  ASSERT_TRUE(spec.has_value());
  EXPECT_DOUBLE_EQ(spec->flap_fraction, 0.2);
  EXPECT_DOUBLE_EQ(spec->outage_rate_per_week, 2.0);
  EXPECT_DOUBLE_EQ(spec->outage_mean_hours, 36.0);
  EXPECT_DOUBLE_EQ(spec->reboot_rate_per_week, 1.5);
  EXPECT_DOUBLE_EQ(spec->firmware_wave_fraction, 0.8);
  EXPECT_DOUBLE_EQ(spec->firmware_wave_hour, 61.0);
  EXPECT_DOUBLE_EQ(spec->corrupt_probability, 0.02);
  EXPECT_EQ(spec->oom_neighbor_threshold, 450u);
  EXPECT_DOUBLE_EQ(spec->skyscraper_fraction, 0.1);
  EXPECT_EQ(spec->skyscraper_neighbors, 700u);
  EXPECT_EQ(spec->tunnel_queue_limit, 128u);
  EXPECT_TRUE(spec->enabled());
}

TEST(FaultSpec, ParseEmptyIsDisabled) {
  const auto spec = FaultSpec::parse("");
  ASSERT_TRUE(spec.has_value());
  EXPECT_FALSE(spec->enabled());
}

TEST(FaultSpec, ParseRejectsUnknownKey) {
  std::string error;
  EXPECT_FALSE(FaultSpec::parse("bogus=1", &error).has_value());
  EXPECT_NE(error.find("bogus"), std::string::npos);
  // The diagnostic lists the valid vocabulary.
  EXPECT_NE(error.find("outage_rate"), std::string::npos);
}

TEST(FaultSpec, ParseRejectsBadValues) {
  std::string error;
  EXPECT_FALSE(FaultSpec::parse("corrupt=banana", &error).has_value());
  EXPECT_NE(error.find("corrupt"), std::string::npos);
  EXPECT_FALSE(FaultSpec::parse("flap=1.5", &error).has_value());
  EXPECT_FALSE(FaultSpec::parse("outage_rate=-2", &error).has_value());
  EXPECT_FALSE(FaultSpec::parse("outage_hours=0", &error).has_value());
  EXPECT_FALSE(FaultSpec::parse("queue=0", &error).has_value());
  EXPECT_FALSE(FaultSpec::parse("oom_threshold=1.5", &error).has_value());
  EXPECT_FALSE(FaultSpec::parse("fw_hour=169", &error).has_value());
  EXPECT_FALSE(FaultSpec::parse("justakey", &error).has_value());
  EXPECT_NE(error.find("key=value"), std::string::npos);
}

TEST(FaultSpec, ParseRejectsRatesAndDurationsPastTheirCaps) {
  // A rate of 1e12 would ask FaultPlan::build for 1e12 intervals per AP.
  std::string error;
  EXPECT_FALSE(FaultSpec::parse("outage_rate=1e12", &error).has_value());
  EXPECT_NE(error.find("outage_rate"), std::string::npos);
  EXPECT_FALSE(FaultSpec::parse("reboot_rate=1000.5", &error).has_value());
  EXPECT_NE(error.find("reboot_rate"), std::string::npos);
  EXPECT_FALSE(FaultSpec::parse("outage_hours=8761", &error).has_value());
  EXPECT_NE(error.find("outage_hours"), std::string::npos);
  // The caps themselves parse.
  const auto spec = FaultSpec::parse("outage_rate=1000,reboot_rate=1000,outage_hours=8760");
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->outage_rate_per_week, FaultSpec::kMaxRatePerWeek);
  EXPECT_EQ(spec->reboot_rate_per_week, FaultSpec::kMaxRatePerWeek);
  EXPECT_EQ(spec->outage_mean_hours, FaultSpec::kMaxOutageMeanHours);
}

TEST(FaultSpec, ClampedCapsRatesAndOutageDuration) {
  FaultSpec spec;
  spec.outage_rate_per_week = 1e12;
  spec.reboot_rate_per_week = 5e6;
  spec.outage_mean_hours = 1e9;
  const FaultSpec c = spec.clamped();
  EXPECT_EQ(c.outage_rate_per_week, FaultSpec::kMaxRatePerWeek);
  EXPECT_EQ(c.reboot_rate_per_week, FaultSpec::kMaxRatePerWeek);
  EXPECT_EQ(c.outage_mean_hours, FaultSpec::kMaxOutageMeanHours);
  EXPECT_EQ(c, c.clamped());
}

}  // namespace
}  // namespace wlm::fault

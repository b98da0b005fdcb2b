#include "core/time.hpp"

#include <gtest/gtest.h>

namespace wlm {
namespace {

TEST(Duration, FactoryUnits) {
  EXPECT_EQ(Duration::millis(1).as_micros(), 1000);
  EXPECT_EQ(Duration::seconds(15).as_micros(), 15'000'000);
  EXPECT_EQ(Duration::minutes(3).as_micros(), 180'000'000);
  EXPECT_EQ(Duration::days(7).as_micros(), 604'800'000'000LL);
}

TEST(Duration, Arithmetic) {
  const auto d = Duration::seconds(300) / 20;
  EXPECT_EQ(d, Duration::seconds(15));
  EXPECT_EQ(Duration::seconds(10) + Duration::seconds(5), Duration::seconds(15));
  EXPECT_EQ(Duration::minutes(2) - Duration::seconds(30), Duration::seconds(90));
  EXPECT_EQ(Duration::seconds(15) * 4, Duration::minutes(1));
  EXPECT_EQ(Duration::minutes(5) / Duration::seconds(15), 20);
}

TEST(Duration, ConversionsToDouble) {
  EXPECT_DOUBLE_EQ(Duration::millis(2500).as_seconds(), 2.5);
  EXPECT_DOUBLE_EQ(Duration::hours(36).as_hours(), 36.0);
  EXPECT_DOUBLE_EQ(Duration::micros(102'400).as_millis(), 102.4);
}

TEST(SimTime, EpochAndAdvance) {
  SimTime t = SimTime::epoch();
  EXPECT_EQ(t.as_micros(), 0);
  t += Duration::hours(25);
  EXPECT_EQ(t.day_index(), 1);
  EXPECT_DOUBLE_EQ(t.hour_of_day(), 1.0);
}

TEST(SimTime, DifferenceIsDuration) {
  const SimTime a = SimTime::epoch() + Duration::seconds(100);
  const SimTime b = SimTime::epoch() + Duration::seconds(40);
  EXPECT_EQ(a - b, Duration::seconds(60));
}

TEST(SimTime, HourOfDayWrapsAtMidnight) {
  const SimTime t = SimTime::epoch() + Duration::days(3) + Duration::hours(23) +
                    Duration::minutes(30);
  EXPECT_NEAR(t.hour_of_day(), 23.5, 1e-9);
  EXPECT_EQ(t.day_index(), 3);
}

TEST(SimTime, Ordering) {
  const SimTime early = SimTime::epoch() + Duration::seconds(1);
  const SimTime late = SimTime::epoch() + Duration::seconds(2);
  EXPECT_LT(early, late);
  EXPECT_GE(late, early);
}

}  // namespace
}  // namespace wlm

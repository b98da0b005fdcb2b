#include "backend/timeseries.hpp"

#include <gtest/gtest.h>

namespace wlm::backend {
namespace {

SeriesKey key(const char* metric, std::uint64_t entity = 1) {
  return SeriesKey{metric, entity};
}

SimTime at_hours(int h) { return SimTime::epoch() + Duration::hours(h); }

TEST(TimeSeries, AppendAndQueryRange) {
  TimeSeriesStore store;
  for (int h = 0; h < 10; ++h) store.append(key("util24"), at_hours(h), h * 0.1);
  const auto points = store.query(key("util24"), at_hours(2), at_hours(5));
  ASSERT_EQ(points.size(), 3u);
  EXPECT_DOUBLE_EQ(points[0].value, 0.2);
  EXPECT_DOUBLE_EQ(points[2].value, 0.4);
}

TEST(TimeSeries, SeriesAreIndependent) {
  TimeSeriesStore store;
  store.append(key("util24", 1), at_hours(0), 1.0);
  store.append(key("util24", 2), at_hours(0), 2.0);
  store.append(key("util5", 1), at_hours(0), 3.0);
  EXPECT_EQ(store.series_count(), 3u);
  EXPECT_EQ(store.total_points(), 3u);
  const auto util24 = store.query(key("util24", 1), at_hours(0), at_hours(1));
  ASSERT_EQ(util24.size(), 1u);
  EXPECT_DOUBLE_EQ(util24[0].value, 1.0);
  const auto util5 = store.query(key("util5", 1), at_hours(0), at_hours(1));
  ASSERT_EQ(util5.size(), 1u);
  EXPECT_DOUBLE_EQ(util5[0].value, 3.0);
}

TEST(TimeSeries, OutOfOrderAppendsSorted) {
  // WAN catch-up after a tunnel outage delivers stale reports late.
  TimeSeriesStore store;
  store.append(key("m"), at_hours(5), 5.0);
  store.append(key("m"), at_hours(1), 1.0);
  store.append(key("m"), at_hours(3), 3.0);
  const auto points = store.query(key("m"), at_hours(0), at_hours(10));
  ASSERT_EQ(points.size(), 3u);
  EXPECT_DOUBLE_EQ(points[0].value, 1.0);
  EXPECT_DOUBLE_EQ(points[1].value, 3.0);
  EXPECT_DOUBLE_EQ(points[2].value, 5.0);
}

TEST(TimeSeries, DownsampleMean) {
  TimeSeriesStore store;
  // Two samples per hour for four hours.
  for (int h = 0; h < 4; ++h) {
    store.append(key("m"), at_hours(h), 1.0);
    store.append(key("m"), at_hours(h) + Duration::minutes(30), 3.0);
  }
  const auto buckets =
      store.downsample(key("m"), at_hours(0), at_hours(4), Duration::hours(1), Agg::kMean);
  ASSERT_EQ(buckets.size(), 4u);
  for (const auto& b : buckets) {
    EXPECT_DOUBLE_EQ(b.value, 2.0);
    EXPECT_EQ(b.samples, 2u);
  }
}

TEST(TimeSeries, DownsampleAggregations) {
  TimeSeriesStore store;
  store.append(key("m"), at_hours(0), 1.0);
  store.append(key("m"), at_hours(0) + Duration::minutes(10), 5.0);
  const auto max_b =
      store.downsample(key("m"), at_hours(0), at_hours(1), Duration::hours(1), Agg::kMax);
  const auto min_b =
      store.downsample(key("m"), at_hours(0), at_hours(1), Duration::hours(1), Agg::kMin);
  const auto sum_b =
      store.downsample(key("m"), at_hours(0), at_hours(1), Duration::hours(1), Agg::kSum);
  const auto cnt_b =
      store.downsample(key("m"), at_hours(0), at_hours(1), Duration::hours(1), Agg::kCount);
  EXPECT_DOUBLE_EQ(max_b[0].value, 5.0);
  EXPECT_DOUBLE_EQ(min_b[0].value, 1.0);
  EXPECT_DOUBLE_EQ(sum_b[0].value, 6.0);
  EXPECT_DOUBLE_EQ(cnt_b[0].value, 2.0);
}

TEST(TimeSeries, EmptyBucketsOmitted) {
  TimeSeriesStore store;
  store.append(key("m"), at_hours(0), 1.0);
  store.append(key("m"), at_hours(5), 2.0);
  const auto buckets =
      store.downsample(key("m"), at_hours(0), at_hours(6), Duration::hours(1), Agg::kMean);
  EXPECT_EQ(buckets.size(), 2u);
}

}  // namespace
}  // namespace wlm::backend

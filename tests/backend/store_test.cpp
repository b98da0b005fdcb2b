#include "backend/store.hpp"

#include <gtest/gtest.h>

namespace wlm::backend {
namespace {

wire::ApReport make(std::uint32_t ap, std::int64_t ts) {
  wire::ApReport r;
  r.ap_id = ap;
  r.timestamp_us = ts;
  return r;
}

TEST(Store, CountsAndGroupsByAp) {
  ReportStore store;
  store.add(make(1, 100));
  store.add(make(1, 200));
  store.add(make(2, 100));
  EXPECT_EQ(store.report_count(), 3u);
  EXPECT_EQ(store.ap_count(), 2u);
  EXPECT_EQ(store.reports_for(ApId{1}).size(), 2u);
  EXPECT_TRUE(store.reports_for(ApId{99}).empty());
}

TEST(Store, ForEachVisitsAll) {
  ReportStore store;
  for (std::uint32_t ap = 1; ap <= 5; ++ap) {
    for (int i = 0; i < 3; ++i) store.add(make(ap, i * 1000));
  }
  int visits = 0;
  store.for_each([&](const wire::ApReport&) { ++visits; });
  EXPECT_EQ(visits, 15);
}

TEST(Store, TimeRangeFilterIsHalfOpen) {
  ReportStore store;
  store.add(make(1, 100));
  store.add(make(1, 200));
  store.add(make(1, 300));
  int visits = 0;
  store.for_each_in(SimTime::from_micros(100), SimTime::from_micros(300),
                    [&](const wire::ApReport&) { ++visits; });
  EXPECT_EQ(visits, 2);  // 100 and 200; 300 excluded
}

TEST(Store, ApsSorted) {
  ReportStore store;
  store.add(make(5, 1));
  store.add(make(1, 1));
  store.add(make(3, 1));
  const auto aps = store.aps();
  ASSERT_EQ(aps.size(), 3u);
  EXPECT_EQ(aps[0], ApId{1});
  EXPECT_EQ(aps[2], ApId{5});
}

TEST(Store, ArrivalOrderPreservedPerAp) {
  ReportStore store;
  store.add(make(1, 300));
  store.add(make(1, 100));  // out-of-order timestamps arrive as-is
  const auto& reports = store.reports_for(ApId{1});
  ASSERT_EQ(reports.size(), 2u);
  EXPECT_EQ(reports[0].timestamp_us, 300);
  EXPECT_EQ(reports[1].timestamp_us, 100);
}

}  // namespace
}  // namespace wlm::backend

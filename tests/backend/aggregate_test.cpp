#include "backend/aggregate.hpp"

#include "core/rng.hpp"

#include <gtest/gtest.h>

namespace wlm::backend {
namespace {

using classify::AppId;
using classify::OsType;

wire::ApReport usage_report(std::uint32_t ap, MacAddress mac, AppId app,
                            std::uint64_t up, std::uint64_t down, std::int64_t ts = 1) {
  wire::ApReport r;
  r.ap_id = ap;
  r.timestamp_us = ts;
  r.usage.push_back(
      wire::ClientUsage{mac, static_cast<std::uint32_t>(app), up, down});
  return r;
}

TEST(Aggregate, RoamingMergesByMac) {
  // Paper SS2.3: usage is aggregated by MAC in the backend to handle roaming.
  ReportStore store;
  const auto mac = MacAddress::from_u64(0xABC);
  store.add(usage_report(1, mac, AppId::kYouTube, 100, 900));
  store.add(usage_report(2, mac, AppId::kYouTube, 50, 450));
  store.add(usage_report(3, mac, AppId::kNetflix, 10, 90));
  UsageAggregator agg;
  agg.consume(store, SimTime::epoch(), SimTime::from_micros(1'000'000));
  ASSERT_EQ(agg.client_count(), 1u);
  const auto& client = agg.clients().at(mac);
  EXPECT_EQ(client.ap_count, 3);
  EXPECT_EQ(client.upstream(), 160u);
  EXPECT_EQ(client.downstream(), 1440u);
  EXPECT_EQ(client.app_bytes.at(AppId::kYouTube).second, 1350u);
}

TEST(Aggregate, ByteConservationThroughPipeline) {
  ReportStore store;
  std::uint64_t total_in = 0;
  Rng rng(3);
  for (std::uint32_t i = 0; i < 200; ++i) {
    const auto up = rng.next_u64() % 10'000;
    const auto down = rng.next_u64() % 100'000;
    total_in += up + down;
    store.add(usage_report(i % 7, MacAddress::from_u64(i % 50),
                           static_cast<AppId>(1 + i % 30), up, down));
  }
  UsageAggregator agg;
  agg.consume(store, SimTime::epoch(), SimTime::from_micros(10));
  std::uint64_t total_out = 0;
  for (const auto& [mac, client] : agg.clients()) total_out += client.total();
  EXPECT_EQ(total_out, total_in);
}

TEST(Aggregate, OsByMajorityVote) {
  ReportStore store;
  const auto mac = MacAddress::from_u64(0xDEF);
  for (int i = 0; i < 3; ++i) {
    wire::ApReport r;
    r.ap_id = static_cast<std::uint32_t>(i);
    r.timestamp_us = 1;
    wire::ClientSnapshot snap;
    snap.client = mac;
    snap.os_id = static_cast<std::uint8_t>(i == 0 ? OsType::kLinux : OsType::kAndroid);
    r.clients.push_back(snap);
    store.add(r);
  }
  UsageAggregator agg;
  agg.consume(store, SimTime::epoch(), SimTime::from_micros(10));
  EXPECT_EQ(agg.clients().at(mac).os, OsType::kAndroid);
}

TEST(Aggregate, CapabilitiesUnionAcrossReports) {
  ReportStore store;
  const auto mac = MacAddress::from_u64(0x123);
  for (std::uint32_t bits : {0x1u, 0x4u}) {
    wire::ApReport r;
    r.ap_id = 1;
    r.timestamp_us = 1;
    wire::ClientSnapshot snap;
    snap.client = mac;
    snap.capability_bits = bits;
    r.clients.push_back(snap);
    store.add(r);
  }
  UsageAggregator agg;
  agg.consume(store, SimTime::epoch(), SimTime::from_micros(10));
  EXPECT_EQ(agg.clients().at(mac).capability_bits, 0x5u);
}

TEST(Aggregate, TimeWindowExcludesOutside) {
  ReportStore store;
  const auto mac = MacAddress::from_u64(1);
  store.add(usage_report(1, mac, AppId::kGmail, 10, 10, /*ts=*/100));
  store.add(usage_report(1, mac, AppId::kGmail, 10, 10, /*ts=*/999'999));
  UsageAggregator agg;
  agg.consume(store, SimTime::from_micros(0), SimTime::from_micros(500));
  EXPECT_EQ(agg.clients().at(mac).total(), 20u);
}

TEST(Aggregate, RollupsByOsAndApp) {
  ReportStore store;
  const auto mac_a = MacAddress::from_u64(1);
  const auto mac_b = MacAddress::from_u64(2);
  store.add(usage_report(1, mac_a, AppId::kYouTube, 0, 100));
  store.add(usage_report(1, mac_b, AppId::kYouTube, 0, 300));
  store.add(usage_report(1, mac_b, AppId::kNetflix, 0, 50));
  UsageAggregator agg;
  agg.consume(store, SimTime::epoch(), SimTime::from_micros(10));
  const auto apps = agg.by_app();
  EXPECT_EQ(apps.at(AppId::kYouTube).clients, 2u);
  EXPECT_EQ(apps.at(AppId::kYouTube).down, 400u);
  EXPECT_EQ(apps.at(AppId::kNetflix).clients, 1u);
}

TEST(Aggregate, CategoryClientsAreDistinct) {
  // A client using two video apps counts once in the Video & music row.
  ReportStore store;
  const auto mac = MacAddress::from_u64(7);
  store.add(usage_report(1, mac, AppId::kYouTube, 0, 10));
  store.add(usage_report(1, mac, AppId::kNetflix, 0, 10));
  UsageAggregator agg;
  agg.consume(store, SimTime::epoch(), SimTime::from_micros(10));
  const auto cats = agg.by_category();
  EXPECT_EQ(cats[static_cast<std::size_t>(classify::Category::kVideoMusic)].clients, 1u);
  EXPECT_EQ(cats[static_cast<std::size_t>(classify::Category::kVideoMusic)].down, 20u);
}

}  // namespace
}  // namespace wlm::backend

// FleetStore: the segment vault behind the streaming harvest. Covers the
// append/read contract against the row store it replaces, spill-to-disk
// transparency, the adopt (checkpoint restore) path, and quarantine drops.
#include <gtest/gtest.h>

#include <string>

#include "backend/store.hpp"
#include "core/rng.hpp"
#include "tsdb/fleet_store.hpp"
#include "wire/messages.hpp"

namespace wlm {
namespace {

wire::ApReport make_report(std::uint32_t ap, std::int64_t t_us, Rng& rng) {
  wire::ApReport r;
  r.ap_id = ap;
  r.timestamp_us = t_us;
  r.firmware = 3;
  wire::ClientUsage u;
  u.client = MacAddress::from_u64(0x3c0754000000ULL + rng.next_u64() % 6);
  u.app_id = static_cast<std::uint32_t>(rng.next_u64() % 12);
  u.tx_bytes = rng.next_u64() % 50000;
  u.rx_bytes = rng.next_u64() % 400000;
  r.usage.push_back(u);
  wire::ClientSnapshot c;
  c.client = u.client;
  c.band = static_cast<std::uint8_t>(ap % 2);
  c.rssi_dbm = -50.0 - static_cast<double>(rng.next_u64() % 30);
  r.clients.push_back(c);
  return r;
}

/// One network's poll batch as a canonical row store. AP ids are globally
/// ascending across networks, like deploy hands them out.
backend::ReportStore make_store(std::uint32_t first_ap, int aps, int per_ap,
                                std::uint64_t seed) {
  Rng rng(seed);
  backend::ReportStore store;
  for (int a = 0; a < aps; ++a) {
    for (int k = 0; k < per_ap; ++k) {
      store.add(make_report(first_ap + static_cast<std::uint32_t>(a),
                            600'000'000LL * (k + 1), rng));
    }
  }
  return store;
}

/// Row-encodes every report a source visits, in visit order — the byte-level
/// identity both storage backends must agree on.
std::vector<std::uint8_t> flatten(const backend::ReportSource& source) {
  std::vector<std::uint8_t> out;
  source.for_each([&](const wire::ApReport& r) {
    const auto bytes = wire::encode_report(r);
    out.insert(out.end(), bytes.begin(), bytes.end());
  });
  return out;
}

/// Three networks' batches appended in fleet order, plus the equivalent
/// row store for comparison.
struct Fixture {
  tsdb::FleetStore fleet;
  backend::ReportStore rows;
};

Fixture make_fixture() {
  Fixture f;
  std::uint32_t first_ap = 100;
  for (std::uint32_t net = 1; net <= 3; ++net) {
    auto store = make_store(first_ap, /*aps=*/3, /*per_ap=*/4, /*seed=*/net);
    store.for_each([&](const wire::ApReport& r) { f.rows.add(r); });
    f.fleet.append_store(net, std::move(store));
    first_ap += 3;
  }
  return f;
}

TEST(FleetStore, ReadsBackTheCanonicalOrderOfTheRowStore) {
  const Fixture f = make_fixture();
  EXPECT_EQ(f.fleet.report_count(), f.rows.report_count());
  EXPECT_EQ(f.fleet.ap_count(), f.rows.ap_count());
  EXPECT_EQ(flatten(f.fleet), flatten(f.rows));
  EXPECT_FALSE(f.fleet.last_error());
}

TEST(FleetStore, ForEachInMatchesRowStoreWindow) {
  const Fixture f = make_fixture();
  const SimTime from = SimTime::epoch() + Duration::millis(700'000);
  const SimTime to = SimTime::epoch() + Duration::millis(1'900'000);
  std::vector<std::uint8_t> fleet_bytes, row_bytes;
  f.fleet.for_each_in(from, to, [&](const wire::ApReport& r) {
    const auto b = wire::encode_report(r);
    fleet_bytes.insert(fleet_bytes.end(), b.begin(), b.end());
  });
  f.rows.for_each_in(from, to, [&](const wire::ApReport& r) {
    const auto b = wire::encode_report(r);
    row_bytes.insert(row_bytes.end(), b.begin(), b.end());
  });
  EXPECT_FALSE(fleet_bytes.empty());
  EXPECT_EQ(fleet_bytes, row_bytes);
}

TEST(FleetStore, ForEachApVisitsAscendingBatches) {
  const Fixture f = make_fixture();
  std::vector<std::uint32_t> visited;
  std::size_t reports = 0;
  f.fleet.for_each_ap([&](ApId ap, const std::vector<wire::ApReport>& batch) {
    visited.push_back(ap.value());
    reports += batch.size();
    for (const auto& r : batch) EXPECT_EQ(r.ap_id, ap.value());
  });
  ASSERT_EQ(visited.size(), 9u);
  EXPECT_TRUE(std::is_sorted(visited.begin(), visited.end()));
  EXPECT_EQ(reports, f.fleet.report_count());
}

TEST(FleetStore, StatsAccountForSealedBytes) {
  const Fixture f = make_fixture();
  const auto& stats = f.fleet.stats();
  EXPECT_EQ(stats.segments_sealed, 3u);
  EXPECT_EQ(stats.reports, 36u);
  EXPECT_EQ(stats.segments_spilled, 0u);
  EXPECT_GT(stats.raw_wire_bytes, 0u);
  EXPECT_EQ(stats.spilled_bytes, 0u);
  EXPECT_GT(stats.resident_bytes, 0u);
  EXPECT_GT(stats.compression_ratio(), 1.0);
}

TEST(FleetStore, SpillIsInvisibleToReaders) {
  Fixture f = make_fixture();
  const auto before = flatten(f.fleet);

  f.fleet.set_mem_ceiling(1);  // 1 byte: everything is over the threshold
  f.fleet.set_spill_dir(testing::TempDir());
  ASSERT_FALSE(f.fleet.maybe_spill());
  const auto& stats = f.fleet.stats();
  EXPECT_EQ(stats.segments_spilled, 3u);
  EXPECT_EQ(stats.spill_files, 1u);
  EXPECT_EQ(stats.resident_bytes, 0u);
  EXPECT_GT(stats.spilled_bytes, 0u);

  // Reads pull segments back from disk, re-validate, and produce the same
  // bytes; accounting totals don't move.
  EXPECT_EQ(flatten(f.fleet), before);
  EXPECT_FALSE(f.fleet.last_error());
  EXPECT_EQ(f.fleet.stats().segment_bytes(), stats.segment_bytes());
}

TEST(FleetStore, SpillWithoutCeilingIsANoOp) {
  Fixture f = make_fixture();
  ASSERT_FALSE(f.fleet.maybe_spill());
  EXPECT_EQ(f.fleet.stats().segments_spilled, 0u);
}

TEST(FleetStore, AdoptedSegmentsReproduceTheOriginal) {
  const Fixture f = make_fixture();
  tsdb::FleetStore restored;
  for (std::size_t i = 0; i < f.fleet.segment_count(); ++i) {
    std::vector<std::uint8_t> bytes;
    ASSERT_FALSE(f.fleet.segment_bytes(i, bytes));
    ASSERT_FALSE(restored.adopt_segment(std::move(bytes)));
  }
  EXPECT_EQ(restored.report_count(), f.fleet.report_count());
  EXPECT_EQ(flatten(restored), flatten(f.fleet));
}

TEST(FleetStore, AdoptRejectsGarbageTyped) {
  tsdb::FleetStore store;
  std::vector<std::uint8_t> junk(64, 0xAB);
  const auto err = store.adopt_segment(std::move(junk));
  EXPECT_TRUE(err);
  EXPECT_EQ(store.segment_count(), 0u);
  EXPECT_EQ(store.report_count(), 0u);
}

TEST(FleetStore, DropNetworkRemovesItsReportsOnly) {
  Fixture f = make_fixture();
  const std::size_t before = f.fleet.report_count();
  f.fleet.drop_network(2);
  EXPECT_EQ(f.fleet.report_count(), before - 12);
  f.fleet.for_each([&](const wire::ApReport& r) {
    EXPECT_TRUE(r.ap_id < 103 || r.ap_id >= 106) << "dropped network's AP survived";
  });
}

TEST(FleetStore, ClearResetsEverything) {
  Fixture f = make_fixture();
  f.fleet.clear();
  EXPECT_EQ(f.fleet.segment_count(), 0u);
  EXPECT_EQ(f.fleet.report_count(), 0u);
  EXPECT_EQ(f.fleet.stats().segment_bytes(), 0u);
  int visits = 0;
  f.fleet.for_each([&](const wire::ApReport&) { ++visits; });
  EXPECT_EQ(visits, 0);
}

TEST(FleetStore, BatchSequencesAdvancePerNetwork) {
  tsdb::FleetStore fleet;
  fleet.append_store(5, make_store(10, 2, 2, 1));
  fleet.append_store(5, make_store(10, 2, 2, 2));
  fleet.append_store(9, make_store(20, 2, 2, 3));
  ASSERT_EQ(fleet.segment_count(), 3u);
  EXPECT_EQ(fleet.info(0).network_id, 5u);
  EXPECT_EQ(fleet.info(0).batch_seq, 0u);
  EXPECT_EQ(fleet.info(1).batch_seq, 1u);
  EXPECT_EQ(fleet.info(2).network_id, 9u);
  EXPECT_EQ(fleet.info(2).batch_seq, 0u);
}

}  // namespace
}  // namespace wlm

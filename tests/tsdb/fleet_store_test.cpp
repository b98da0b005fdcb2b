// FleetStore: the segment vault behind the streaming harvest. Covers the
// append/read contract against the row store it replaces, spill-to-disk
// transparency, the adopt (checkpoint restore) path, and quarantine drops.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <stdexcept>
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
  // Each AP's reports form one run of the stream, runs ascending by AP id:
  // the ReportSource contract per-AP readers fold on.
  const Fixture f = make_fixture();
  std::vector<std::uint32_t> runs;
  std::size_t reports = 0;
  f.fleet.for_each([&](const wire::ApReport& r) {
    if (runs.empty() || runs.back() != r.ap_id) runs.push_back(r.ap_id);
    ++reports;
  });
  ASSERT_EQ(runs.size(), 9u);
  EXPECT_TRUE(std::adjacent_find(runs.begin(), runs.end(), std::greater_equal<>()) ==
              runs.end());
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

TEST(FleetStore, AdoptRefusesADescendingApColumn) {
  // The writer seals reports in the order it is fed; a segment whose AP
  // column reads [5, 3] is CRC-valid but not canonical, and indexing it
  // would merge an unsorted AP id list into the network's.
  Fixture f = make_fixture();
  const std::size_t segments = f.fleet.segment_count();
  const auto flat = flatten(f.fleet);
  tsdb::SegmentWriter writer(2, 7);
  Rng rng(5);
  writer.add(make_report(105, 600'000'000, rng));
  writer.add(make_report(103, 600'000'000, rng));
  const auto err = f.fleet.adopt_segment(writer.seal());
  EXPECT_EQ(err.status, tsdb::Status::kNotCanonical) << err.detail;
  EXPECT_EQ(f.fleet.segment_count(), segments);
  EXPECT_EQ(f.fleet.next_batch_seq(2), 1u);
  EXPECT_EQ(flatten(f.fleet), flat);
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

TEST(FleetStore, DropNetworkLeavesTheStatsOfAVaultThatNeverHadIt) {
  // Network 2 seals two batches; dropping it must take both out of every
  // stat, so the vault reads as if network 2 had never been harvested.
  Fixture f = make_fixture();
  f.fleet.append_store(2, make_store(103, 3, 2, 9));
  f.fleet.drop_network(2);
  tsdb::FleetStore never;
  never.append_store(1, make_store(100, 3, 4, 1));
  never.append_store(3, make_store(106, 3, 4, 3));
  const tsdb::FleetStoreStats& got = f.fleet.stats();
  const tsdb::FleetStoreStats& want = never.stats();
  EXPECT_EQ(got.segments_sealed, want.segments_sealed);
  EXPECT_EQ(got.segments_spilled, want.segments_spilled);
  EXPECT_EQ(got.spill_files, want.spill_files);
  EXPECT_EQ(got.resident_bytes, want.resident_bytes);
  EXPECT_EQ(got.spilled_bytes, want.spilled_bytes);
  EXPECT_EQ(got.raw_wire_bytes, want.raw_wire_bytes);
  EXPECT_EQ(got.reports, want.reports);
  EXPECT_EQ(got.compression_ratio(), want.compression_ratio());
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

/// Reads a whole file.
std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// Where segment `i`'s bytes sit inside spill file `path`.
std::size_t spill_offset(const tsdb::FleetStore& fleet, std::size_t i, const std::string& path) {
  std::vector<std::uint8_t> seg;
  EXPECT_FALSE(fleet.segment_bytes(i, seg));
  const auto file = read_file(path);
  const auto at = std::search(file.begin(), file.end(), seg.begin(), seg.end());
  EXPECT_NE(at, file.end()) << "segment " << i << " not found in " << path;
  return static_cast<std::size_t>(at - file.begin());
}

/// Twelve networks (ids 0..11, two APs each) spilled to two files:
/// networks 0..5 to the first, 6..11 to the second. Network 5's range is
/// cut short by truncating the first file inside it; network 9's range has
/// one byte flipped, so its block CRC fails.
struct Damaged {
  tsdb::FleetStore fleet;
  backend::ReportStore good;  // networks 0..4: what a read may deliver
  std::string first_file;
};

void make_damaged(Damaged& d, const std::string& name) {
  const std::string dir = testing::TempDir() + "bad_read_" + name;
  std::filesystem::remove_all(dir);
  d.fleet.set_mem_ceiling(1);
  d.fleet.set_spill_dir(dir);
  for (std::uint32_t net = 0; net < 12; ++net) {
    auto store = make_store(100 + 2 * net, /*aps=*/2, /*per_ap=*/3, /*seed=*/net + 1);
    if (net < 5) store.for_each([&](const wire::ApReport& r) { d.good.add(r); });
    d.fleet.append_store(net, std::move(store));
    if (net == 5 || net == 11) {
      ASSERT_FALSE(d.fleet.maybe_spill());
    }
  }
  ASSERT_EQ(d.fleet.stats().spill_files, 2u);
  d.first_file = dir + "/tsdb_spill_000000.ckpt";
  const std::string second_file = dir + "/tsdb_spill_000001.ckpt";

  const std::size_t net5 = spill_offset(d.fleet, 5, d.first_file);
  std::filesystem::resize_file(d.first_file, net5 + d.fleet.info(5).size / 2);

  const std::size_t net9 = spill_offset(d.fleet, 9, second_file) + d.fleet.info(9).size / 2;
  std::FILE* f = std::fopen(second_file.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, static_cast<long>(net9), SEEK_SET), 0);
  const int byte = std::fgetc(f);
  ASSERT_EQ(std::fseek(f, static_cast<long>(net9), SEEK_SET), 0);
  std::fputc(byte ^ 0x5A, f);
  std::fclose(f);

  // Both ranges really are damaged: network 9 would fail on its own too.
  std::vector<std::uint8_t> bytes;
  EXPECT_EQ(d.fleet.segment_bytes(5, bytes).status, tsdb::Status::kIo);
  ASSERT_FALSE(d.fleet.segment_bytes(9, bytes));
  EXPECT_EQ(tsdb::SegmentReader::for_each(bytes, [](wire::ApReport&&) {}).status,
            tsdb::Status::kBadCrc);
}

void expect_network5_error(const Damaged& d) {
  EXPECT_EQ(d.fleet.last_error().status, tsdb::Status::kIo);
  EXPECT_EQ(d.fleet.last_error().detail, "short read from spill file " + d.first_file);
}

std::vector<std::uint8_t> encode_all(const std::vector<wire::ApReport>& reports) {
  std::vector<std::uint8_t> out;
  for (const auto& r : reports) {
    const auto b = wire::encode_report(r);
    out.insert(out.end(), b.begin(), b.end());
  }
  return out;
}

TEST(FleetStore, ReadStopsAtTheFirstBadNetworkInCanonicalOrder) {
  // Read-ahead helpers decode networks past 5, network 9 among them; the
  // caller still delivers 0..4 and latches only network 5's error.
  for (const int threads : {1, 2, 4}) {
    SCOPED_TRACE("read threads " + std::to_string(threads));
    const std::string tag = std::to_string(threads);
    {
      Damaged d;
      make_damaged(d, "for_each" + tag);
      d.fleet.set_read_threads(threads);
      EXPECT_EQ(flatten(d.fleet), flatten(d.good));
      expect_network5_error(d);
    }
    {
      Damaged d;
      make_damaged(d, "for_each_in" + tag);
      d.fleet.set_read_threads(threads);
      const SimTime from = SimTime::epoch() + Duration::millis(700'000);
      const SimTime to = SimTime::epoch() + Duration::millis(1'900'000);
      std::vector<wire::ApReport> got, want;
      d.fleet.for_each_in(from, to, [&](const wire::ApReport& r) { got.push_back(r); });
      d.good.for_each_in(from, to, [&](const wire::ApReport& r) { want.push_back(r); });
      EXPECT_FALSE(want.empty());
      EXPECT_EQ(encode_all(got), encode_all(want));
      expect_network5_error(d);
    }
  }
}

TEST(FleetStore, ReadAheadDeliversTheSerialVisit) {
  // 40 networks outrun the 32-slot window of four read threads, so slots
  // are reused while the caller delivers.
  tsdb::FleetStore serial, parallel;
  parallel.set_read_threads(4);
  for (std::uint32_t net = 0; net < 40; ++net) {
    serial.append_store(net, make_store(10 + 3 * net, 3, 2, net + 7));
    parallel.append_store(net, make_store(10 + 3 * net, 3, 2, net + 7));
  }
  EXPECT_EQ(flatten(parallel), flatten(serial));
  EXPECT_FALSE(parallel.last_error());
}

TEST(FleetStore, ACallbackThatThrowsStopsTheReadCleanly) {
  // The helpers must be joined before the exception leaves the read: the
  // window they decode into lives on the reader's stack.
  tsdb::FleetStore fleet;
  fleet.set_read_threads(4);
  for (std::uint32_t net = 0; net < 40; ++net) {
    fleet.append_store(net, make_store(10 + 3 * net, 3, 2, net + 7));
  }
  std::size_t seen = 0;
  const auto stop_at_20 = [&](const wire::ApReport&) {
    if (++seen == 20) throw std::runtime_error("stop");
  };
  EXPECT_THROW(fleet.for_each(stop_at_20), std::runtime_error);
  EXPECT_EQ(seen, 20u);
  EXPECT_FALSE(fleet.last_error());
  // The vault reads in full afterwards.
  std::size_t all = 0;
  fleet.for_each([&](const wire::ApReport&) { ++all; });
  EXPECT_EQ(all, fleet.report_count());
}

}  // namespace
}  // namespace wlm

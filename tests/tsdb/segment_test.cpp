// SegmentWriter/SegmentReader: roundtrip fidelity, header metadata, the
// validating parse's summary, and sealed-byte determinism.
#include <gtest/gtest.h>

#include <span>

#include "core/checksum.hpp"
#include "core/rng.hpp"
#include "tsdb/segment.hpp"
#include "wire/messages.hpp"

namespace wlm {
namespace {

/// A report exercising every column: child rows of each kind, repeated MACs
/// (dictionary pressure), negative-adjacent channel/RSSI values.
wire::ApReport make_report(std::uint32_t ap, std::int64_t t_us, Rng& rng) {
  wire::ApReport r;
  r.ap_id = ap;
  r.timestamp_us = t_us;
  r.firmware = 20667;
  for (int i = 0; i < 4; ++i) {
    wire::ClientUsage u;
    u.client = MacAddress::from_u64(0x3c0754000000ULL + rng.next_u64() % 8);
    u.app_id = static_cast<std::uint32_t>(rng.next_u64() % 40);
    u.tx_bytes = rng.next_u64() % 1'000'000;
    u.rx_bytes = rng.next_u64() % 9'000'000;
    r.usage.push_back(u);
  }
  for (int band = 0; band < 2; ++band) {
    wire::ChannelUtilization util;
    util.band = static_cast<std::uint8_t>(band);
    util.channel = band == 0 ? 6 : 149;
    util.cycle_us = 1'000'000;
    util.busy_us = rng.next_u64() % 1'000'000;
    util.rx_frame_us = util.busy_us / 2;
    util.tx_us = util.busy_us / 4;
    r.utilization.push_back(util);
  }
  for (int i = 0; i < 3; ++i) {
    wire::NeighborBss nbr;
    nbr.bssid = MacAddress::from_u64(0x88154E000000ULL + rng.next_u64() % 5);
    nbr.band = static_cast<std::uint8_t>(i % 2);
    nbr.channel = 1 + static_cast<std::int32_t>(rng.next_u64() % 11);
    nbr.rssi_dbm = -30.0 - static_cast<double>(rng.next_u64() % 60);
    nbr.is_hotspot = (i == 1);
    nbr.is_same_fleet = (i == 2);
    r.neighbors.push_back(nbr);
  }
  {
    wire::LinkProbeWindow link;
    link.from_ap = ap > 0 ? ap - 1 : 0;
    link.band = 1;
    link.channel = 36;
    link.probes_expected = 300;
    link.probes_received = 280 + static_cast<std::uint32_t>(rng.next_u64() % 20);
    r.links.push_back(link);
  }
  for (int i = 0; i < 2; ++i) {
    wire::ClientSnapshot c;
    c.client = MacAddress::from_u64(0x3c0754000000ULL + rng.next_u64() % 8);
    c.capability_bits = static_cast<std::uint32_t>(rng.next_u64() % 256);
    c.band = static_cast<std::uint8_t>(i % 2);
    c.rssi_dbm = -45.5 - static_cast<double>(i);
    c.os_id = static_cast<std::uint8_t>(rng.next_u64() % 6);
    r.clients.push_back(c);
  }
  return r;
}

/// Canonical-order batch: ascending AP id, several reports per AP.
std::vector<wire::ApReport> make_batch(std::uint64_t seed, int aps, int per_ap) {
  Rng rng(seed);
  std::vector<wire::ApReport> reports;
  for (int a = 0; a < aps; ++a) {
    for (int k = 0; k < per_ap; ++k) {
      reports.push_back(make_report(100 + static_cast<std::uint32_t>(a),
                                    3'600'000'000LL * (k + 1), rng));
    }
  }
  return reports;
}

std::vector<std::uint8_t> seal_batch(const std::vector<wire::ApReport>& reports,
                                     std::uint32_t network = 7, std::uint32_t batch = 0) {
  tsdb::SegmentWriter writer(network, batch);
  for (const auto& r : reports) writer.add(r);
  return writer.seal();
}

TEST(Segment, RoundTripsEveryFieldInOrder) {
  const auto reports = make_batch(1, /*aps=*/5, /*per_ap=*/3);
  const auto bytes = seal_batch(reports);

  std::vector<wire::ApReport> decoded;
  const auto err = tsdb::SegmentReader::for_each(
      bytes, [&](wire::ApReport&& r) { decoded.push_back(std::move(r)); });
  ASSERT_FALSE(err) << err.detail;
  ASSERT_EQ(decoded.size(), reports.size());
  for (std::size_t i = 0; i < reports.size(); ++i) {
    EXPECT_EQ(decoded[i], reports[i]) << "report " << i;
  }
}

TEST(Segment, HeaderCarriesCountsAndBaseline) {
  const auto reports = make_batch(2, 4, 2);
  tsdb::SegmentWriter writer(42, 9);
  std::uint64_t raw = 0;
  for (const auto& r : reports) {
    writer.add(r);
    raw += wire::encode_report(r).size();
  }
  EXPECT_EQ(writer.raw_wire_bytes(), raw);
  const auto bytes = writer.seal();

  tsdb::SegmentHeader header;
  ASSERT_FALSE(tsdb::SegmentReader::validate(bytes, &header));
  EXPECT_EQ(header.network_id, 42u);
  EXPECT_EQ(header.batch_seq, 9u);
  EXPECT_EQ(header.n_reports, reports.size());
  EXPECT_EQ(header.n_aps, 4u);
  EXPECT_EQ(header.raw_wire_bytes, raw);
  EXPECT_GT(header.n_blocks, 0u);
}

TEST(Segment, ValidateReturnsHeaderAndApIds) {
  const auto reports = make_batch(3, 3, 4);
  const auto bytes = seal_batch(reports, /*network=*/7, /*batch=*/5);

  tsdb::SegmentHeader header;
  std::vector<std::uint32_t> aps;
  ASSERT_FALSE(tsdb::SegmentReader::validate(bytes, &header, &aps));
  EXPECT_EQ(aps, (std::vector<std::uint32_t>{100, 101, 102}));
  EXPECT_EQ(header.network_id, 7u);
  EXPECT_EQ(header.batch_seq, 5u);
  EXPECT_EQ(header.n_reports, reports.size());
  EXPECT_EQ(header.n_aps, 3u);
}

TEST(Segment, SealedBytesAreDeterministic) {
  // Same canonical input, two independent writers: identical bytes. This is
  // the property the fleet's cross---jobs identity reduces to.
  const auto reports = make_batch(4, 6, 3);
  EXPECT_EQ(seal_batch(reports), seal_batch(reports));
}

TEST(Segment, CompresssesRepeatedTelemetryAtLeastThreefold) {
  // A realistic poll batch (repeated MACs, near-sorted timestamps, small
  // value ranges) must hit the >= 3x north star against the row encoding.
  // Week-scale depth: ~12 polls per AP, matching what one network seals at
  // a phase boundary (tiny batches stay under 3x — headers and dictionaries
  // haven't amortized yet; BENCH_fullscale measures 3.8x at fleet scale).
  const auto reports = make_batch(5, 8, 12);
  tsdb::SegmentWriter writer(1, 0);
  for (const auto& r : reports) writer.add(r);
  const std::uint64_t raw = writer.raw_wire_bytes();
  const auto bytes = writer.seal();
  EXPECT_GE(static_cast<double>(raw) / static_cast<double>(bytes.size()), 3.0)
      << raw << " raw vs " << bytes.size() << " sealed";
}

TEST(Segment, EmptySegmentSealsAndValidates) {
  tsdb::SegmentWriter writer(3, 0);
  const auto bytes = writer.seal();
  tsdb::SegmentHeader header;
  ASSERT_FALSE(tsdb::SegmentReader::validate(bytes, &header));
  EXPECT_EQ(header.n_reports, 0u);
  int visits = 0;
  ASSERT_FALSE(tsdb::SegmentReader::for_each(bytes, [&](wire::ApReport&&) { ++visits; }));
  EXPECT_EQ(visits, 0);
}

TEST(Segment, SealAllocatesExactlyTheSegmentsBytes) {
  // The store keeps the sealed vector as it comes back, so any capacity
  // past size() would stay resident with it.
  for (const auto& [aps, per_ap] : {std::pair{0, 0}, std::pair{1, 1}, std::pair{5, 3},
                                    std::pair{8, 12}, std::pair{40, 6}}) {
    tsdb::SegmentWriter writer(7, 0);
    for (const auto& r : make_batch(9, aps, per_ap)) writer.add(r);
    const auto bytes = writer.seal();
    EXPECT_EQ(bytes.capacity(), bytes.size()) << aps << " APs x " << per_ap << " reports";
  }
}

TEST(Segment, ValidateAcceptsWhatForEachAccepts) {
  const auto bytes = seal_batch(make_batch(6, 2, 2));
  EXPECT_FALSE(tsdb::SegmentReader::validate(bytes));
}

TEST(Segment, EncodingChoicesArePinned) {
  // Small batches put the plain/dictionary choice on a knife edge. Two
  // reports with a constant column tie (2 plain bytes against a 1-entry
  // dictionary's 2), and a tie must stay plain; a third report tips it to
  // the dictionary. The random batch covers the wide columns.
  wire::ApReport a;
  a.ap_id = 100;
  a.timestamp_us = 5;
  a.firmware = 5;
  wire::ApReport b = a;
  b.timestamp_us = 9;
  std::uint32_t crc = 0;
  for (const auto& bytes : {seal_batch({a, b}), seal_batch({a, b, b}),
                            seal_batch(make_batch(8, 5, 7))}) {
    // Without the trailer: a CRC over bytes plus their own CRC is constant.
    crc = crc32_update(crc, std::span(bytes).first(bytes.size() - 4));
  }
  EXPECT_EQ(crc, 0xf0cdcfdau) << std::hex << crc;
}

}  // namespace
}  // namespace wlm

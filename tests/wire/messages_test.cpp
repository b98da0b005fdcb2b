#include "wire/messages.hpp"

#include <gtest/gtest.h>

#include "core/checksum.hpp"
#include "core/rng.hpp"

namespace wlm::wire {
namespace {

ApReport sample_report() {
  ApReport r;
  r.ap_id = 1234;
  r.timestamp_us = 86'400'000'000LL;
  r.firmware = 2;
  r.usage.push_back(
      ClientUsage{MacAddress::from_u64(0x3c0754aabbccULL), 7, 1'000'000, 9'000'000});
  r.usage.push_back(ClientUsage{MacAddress::from_u64(0x001b21ddeeffULL), 2, 5, 0});
  ChannelUtilization u;
  u.band = 0;
  u.channel = 6;
  u.cycle_us = 300'000'000;
  u.busy_us = 75'000'000;
  u.rx_frame_us = 60'000'000;
  u.tx_us = 1'000'000;
  r.utilization.push_back(u);
  NeighborBss n;
  n.bssid = MacAddress::from_u64(0x001529123456ULL);
  n.band = 0;
  n.channel = 1;
  n.rssi_dbm = -77.25;
  n.is_hotspot = true;
  r.neighbors.push_back(n);
  LinkProbeWindow l;
  l.from_ap = 99;
  l.band = 1;
  l.channel = 36;
  l.probes_expected = 20;
  l.probes_received = 17;
  r.links.push_back(l);
  ClientSnapshot c;
  c.client = MacAddress::from_u64(0x3c0754aabbccULL);
  c.capability_bits = 0x1F;
  c.band = 1;
  c.rssi_dbm = -64.5;
  c.os_id = 2;
  r.clients.push_back(c);
  return r;
}

TEST(Messages, FullRoundTrip) {
  const ApReport original = sample_report();
  const auto bytes = encode_report(original);
  const auto decoded = decode_report(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, original);
}

TEST(Messages, EmptyReportRoundTrip) {
  ApReport empty;
  const auto decoded = decode_report(encode_report(empty));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, empty);
}

TEST(Messages, NegativeTimestampSurvives) {
  ApReport r;
  r.timestamp_us = -42;  // pre-epoch timestamps must not corrupt
  const auto decoded = decode_report(encode_report(r));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->timestamp_us, -42);
}

TEST(Messages, LinkWindowDeliveryRatio) {
  LinkProbeWindow w;
  w.probes_expected = 20;
  w.probes_received = 15;
  EXPECT_DOUBLE_EQ(w.delivery_ratio(), 0.75);
  w.probes_expected = 0;
  EXPECT_DOUBLE_EQ(w.delivery_ratio(), 0.0);
}

TEST(Messages, MalformedBytesRejected) {
  std::vector<std::uint8_t> junk{0x00, 0xFF, 0x80};
  EXPECT_FALSE(decode_report(junk).has_value());
}

TEST(Messages, TruncatedReportRejected) {
  auto bytes = encode_report(sample_report());
  bytes.resize(bytes.size() / 2);
  // Either cleanly rejected or the truncation lands between fields; it must
  // never crash, and a mid-field cut must be detected.
  (void)decode_report(bytes);
}

TEST(Messages, WireSizeIsCompact) {
  // The §2 overhead budget depends on varint packing: a usage record with
  // small counters must cost far less than its in-memory footprint.
  ApReport r;
  r.ap_id = 1;
  r.usage.push_back(ClientUsage{MacAddress::from_u64(0xAABBCCDDEEFFULL), 3, 100, 2000});
  const auto bytes = encode_report(r);
  EXPECT_LT(bytes.size(), 32u);
}

TEST(Messages, ManyRecordsRoundTrip) {
  ApReport r;
  r.ap_id = 7;
  for (std::uint32_t i = 0; i < 500; ++i) {
    r.usage.push_back(ClientUsage{MacAddress::from_u64(i), i % 40, i, i * 2});
  }
  const auto decoded = decode_report(encode_report(r));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->usage.size(), 500u);
  EXPECT_EQ(*decoded, r);
}


// --- decode behaviour pinned on hand-built bytes ---------------------------
//
// Reports from other firmware need not match our encoder's field order or
// field set; these cases fix how such bytes decode.

std::optional<ApReport> decode_bytes(std::vector<std::uint8_t> bytes) {
  return decode_report(bytes);
}

ClientUsage usage_1234() { return ClientUsage{MacAddress::from_u64(1), 2, 3, 4}; }

TEST(Messages, UnknownTopLevelFieldsAreSkipped) {
  const ApReport original = sample_report();
  // Field 15 as a varint, field 12 length-delimited, ahead of the report.
  std::vector<std::uint8_t> bytes{0x78, 0x07, 0x62, 0x03, 'a', 'b', 'c'};
  const auto tail = encode_report(original);
  bytes.insert(bytes.end(), tail.begin(), tail.end());
  const auto decoded = decode_report(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, original);
}

TEST(Messages, UnknownFieldInsideUsageRowIsSkipped) {
  const auto r = decode_bytes({0x22, 0x0A, 0x08, 0x01, 0x10, 0x02, 0x18, 0x03, 0x20, 0x04,
                               0x28, 0x05});
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->usage, std::vector<ClientUsage>{usage_1234()});
}

TEST(Messages, UsageRowFieldsInAnyOrder) {
  const auto r = decode_bytes({0x22, 0x08, 0x20, 0x04, 0x18, 0x03, 0x10, 0x02, 0x08, 0x01});
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->usage, std::vector<ClientUsage>{usage_1234()});
}

TEST(Messages, NonMinimalTagDecodesAsItsField) {
  const auto r = decode_bytes({0x88, 0x00, 0x2A});
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->ap_id, 42u);
}

TEST(Messages, RepeatedScalarKeepsLastValue) {
  const auto r = decode_bytes({0x08, 0x01, 0x08, 0x02});
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->ap_id, 2u);
}

TEST(Messages, WireTypeMismatchReadsAsZero) {
  // app_id (usage field 2) sent length-delimited reads as 0.
  const auto r = decode_bytes({0x22, 0x09, 0x08, 0x01, 0x12, 0x01, 0x07, 0x18, 0x03, 0x20, 0x04});
  ASSERT_TRUE(r.has_value());
  ClientUsage want = usage_1234();
  want.app_id = 0;
  EXPECT_EQ(r->usage, std::vector<ClientUsage>{want});
}

TEST(Messages, SubMessageSentAsVarintAppendsDefaultRow) {
  // Field 8 (client) as a varint has no payload: a default snapshot.
  const auto r = decode_bytes({0x40, 0x05});
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->clients, std::vector<ClientSnapshot>{ClientSnapshot{}});
}

TEST(Messages, MutantCorpusDigestIsPinned) {
  // Byte flips, truncations and inserted bytes over a report carrying every
  // sub-message kind and the mesh fields. Each mutant's accept flag and its
  // re-encoded decode fold into one CRC, so any change in what the decoder
  // accepts or what it reads out of damaged bytes moves the digest.
  ApReport report = sample_report();
  report.mesh_hops = 2;
  report.mesh_relay_us = 1500;
  const auto valid = encode_report(report);
  Rng rng(2015);
  std::uint32_t crc = 0;
  std::size_t accepted = 0;
  for (int i = 0; i < 20'000; ++i) {
    auto m = valid;
    switch (i % 3) {
      case 0:
        for (int f = 0, n = 1 + static_cast<int>(rng.next_u64() % 3); f < n; ++f) {
          m[rng.next_u64() % m.size()] ^= static_cast<std::uint8_t>(1 + rng.next_u64() % 255);
        }
        break;
      case 1:
        m.resize(rng.next_u64() % m.size());
        break;
      default:
        m.insert(m.begin() + static_cast<std::ptrdiff_t>(rng.next_u64() % (m.size() + 1)),
                 static_cast<std::uint8_t>(rng.next_u64()));
        break;
    }
    const auto decoded = decode_report(m);
    const std::uint8_t flag = decoded ? 1 : 0;
    crc = crc32_update(crc, {&flag, 1});
    if (decoded) {
      ++accepted;
      crc = crc32_update(crc, encode_report(*decoded));
    }
  }
  // Among the rejected: 11 mutants whose damaged tags carry a field number
  // of 2^32 or more, which must not alias a lower field.
  EXPECT_EQ(accepted, 2507u);
  EXPECT_EQ(crc, 0xBDC2BE82u);
}

}  // namespace
}  // namespace wlm::wire

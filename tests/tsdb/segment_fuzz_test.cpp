// Adversarial segment inputs (style of tests/ckpt/ckpt_fuzz_test.cpp).
//
// Sealed segments cross a trust boundary once they spill to disk: a reader
// may meet a torn write, a corrupted sector, or a tampered file. Every such
// input must come back as a typed tsdb::Error — never a crash, hang,
// out-of-bounds read (the ASan/UBSan lanes run this file), or a partially
// decoded batch.
#include <gtest/gtest.h>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <cstring>
#include <functional>
#include <limits>

#include "core/checksum.hpp"
#include "core/rng.hpp"
#include "tsdb/segment.hpp"
#include "wire/messages.hpp"
#include "wire/varint.hpp"

namespace wlm {
namespace {

/// Twelve reports from four APs with rows in every column group, and the
/// mesh pair on one AP's reports, so the sweeps below reach every block.
std::vector<std::uint8_t> valid_segment() {
  Rng rng(77);
  tsdb::SegmentWriter writer(11, 2);
  for (std::uint32_t ap = 50; ap < 54; ++ap) {
    for (int k = 0; k < 3; ++k) {
      wire::ApReport r;
      r.ap_id = ap;
      r.timestamp_us = 1'000'000LL * (k + 1);
      r.firmware = 1;
      if (ap == 52) {
        r.mesh_hops = 2;
        r.mesh_relay_us = 900 + rng.next_u64() % 100;
      }
      wire::ClientUsage u;
      u.client = MacAddress::from_u64(0x3c0754000000ULL + rng.next_u64() % 4);
      u.app_id = static_cast<std::uint32_t>(rng.next_u64() % 10);
      u.tx_bytes = rng.next_u64() % 10000;
      u.rx_bytes = rng.next_u64() % 90000;
      r.usage.push_back(u);
      wire::NeighborBss nbr;
      nbr.bssid = MacAddress::from_u64(0x88154E000000ULL + rng.next_u64() % 3);
      nbr.channel = 6;
      nbr.rssi_dbm = -60.0;
      r.neighbors.push_back(nbr);
      wire::ChannelUtilization util;
      util.band = 1;
      util.channel = 36;
      util.cycle_us = 1'000'000;
      util.busy_us = rng.next_u64() % 1'000'000;
      r.utilization.push_back(util);
      wire::LinkProbeWindow link;
      link.from_ap = ap + 1;
      link.channel = 6;
      link.probes_expected = 300;
      link.probes_received = 290;
      r.links.push_back(link);
      wire::ClientSnapshot client;
      client.client = u.client;
      client.band = 1;
      client.rssi_dbm = -50.5;
      r.clients.push_back(client);
      writer.add(r);
    }
  }
  return writer.seal();
}

/// Recomputes the segment trailer CRC after a deliberate mutation, so the
/// tamper is NOT caught by the cheap whole-segment checksum and the reader
/// has to catch it structurally.
void reseal_trailer_crc(std::vector<std::uint8_t>& bytes) {
  ASSERT_GE(bytes.size(), tsdb::kMagic.size() + 4);
  const std::span<const std::uint8_t> guarded{bytes.data() + tsdb::kMagic.size(),
                                              bytes.size() - tsdb::kMagic.size() - 4};
  const std::uint32_t crc = crc32(guarded);
  std::uint8_t* trailer = bytes.data() + bytes.size() - 4;
  trailer[0] = static_cast<std::uint8_t>(crc);
  trailer[1] = static_cast<std::uint8_t>(crc >> 8);
  trailer[2] = static_cast<std::uint8_t>(crc >> 16);
  trailer[3] = static_cast<std::uint8_t>(crc >> 24);
}

/// The reader contract every adversarial case reduces to. for_each() checks
/// only what keeps the decode safe, validate() also asks whether the writer
/// seals these bytes:
///   - a for_each() error emits nothing, and validate() returns it too;
///   - a validate() ok decodes through for_each(), every report the
///     header counts;
///   - for_each() may accept bytes validate() refuses, still typed.
void expect_typed_outcome(std::span<const std::uint8_t> bytes) {
  std::vector<wire::ApReport> decoded;
  const auto err = tsdb::SegmentReader::for_each(
      bytes, [&](wire::ApReport&& r) { decoded.push_back(std::move(r)); });
  tsdb::SegmentHeader header;
  const auto verr = tsdb::SegmentReader::validate(bytes, &header);
  if (err) {
    EXPECT_TRUE(decoded.empty()) << "partial decode emitted reports";
    EXPECT_EQ(verr.status, err.status) << "validate() is more permissive than for_each()";
  }
  if (verr.ok()) {
    EXPECT_TRUE(err.ok()) << err.detail;
    EXPECT_EQ(decoded.size(), header.n_reports);
  }
}

TEST(SegmentFuzz, EveryTruncationFailsTyped) {
  const auto valid = valid_segment();
  for (std::size_t cut = 0; cut < valid.size(); ++cut) {
    const std::span<const std::uint8_t> prefix{valid.data(), cut};
    std::vector<wire::ApReport> decoded;
    const auto err = tsdb::SegmentReader::for_each(
        prefix, [&](wire::ApReport&& r) { decoded.push_back(std::move(r)); });
    EXPECT_TRUE(err) << "truncation at " << cut << " decoded successfully";
    EXPECT_TRUE(decoded.empty());
  }
}

TEST(SegmentFuzz, BitFlipsNeverCrash) {
  const auto valid = valid_segment();
  Rng rng(201);
  for (int i = 0; i < 500; ++i) {
    auto mutated = valid;
    const int flips = 1 + static_cast<int>(rng.next_u64() % 8);
    for (int f = 0; f < flips; ++f) {
      mutated[rng.next_u64() % mutated.size()] ^=
          static_cast<std::uint8_t>(1 + rng.next_u64() % 255);
    }
    expect_typed_outcome(mutated);
  }
}

TEST(SegmentFuzz, SingleBitFlipsAcrossTheWholeSegment) {
  const auto valid = valid_segment();
  for (std::size_t byte = 0; byte < valid.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      auto mutated = valid;
      mutated[byte] ^= static_cast<std::uint8_t>(1u << bit);
      expect_typed_outcome(mutated);
    }
  }
}

TEST(SegmentFuzz, ResealedBitFlipsMustFailStructurally) {
  // Flip a bit, then FIX the trailer CRC: the cheap checksum passes, so the
  // block CRCs and structural checks must catch the damage (or the flip
  // lands in a block payload whose own CRC fails — either way, typed).
  const auto valid = valid_segment();
  Rng rng(202);
  for (int i = 0; i < 300; ++i) {
    auto mutated = valid;
    // Keep the magic intact so the mutation tests deep validation, and stay
    // off the trailer itself (it gets recomputed anyway).
    const std::size_t lo = tsdb::kMagic.size();
    const std::size_t span = mutated.size() - lo - 4;
    mutated[lo + rng.next_u64() % span] ^=
        static_cast<std::uint8_t>(1 + rng.next_u64() % 255);
    reseal_trailer_crc(mutated);
    expect_typed_outcome(mutated);
  }
}

TEST(SegmentFuzz, RandomGarbageFailsTyped) {
  Rng rng(203);
  for (int i = 0; i < 2000; ++i) {
    std::vector<std::uint8_t> junk(rng.next_u64() % 300);
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.next_u64());
    std::vector<wire::ApReport> decoded;
    const auto err = tsdb::SegmentReader::for_each(
        junk, [&](wire::ApReport&& r) { decoded.push_back(std::move(r)); });
    EXPECT_TRUE(err);
    EXPECT_TRUE(decoded.empty());
  }
}

void put_u32le(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

/// Hand-builds a segment header for crafted-field attacks the mutation
/// fuzzers cannot reach (multi-byte varints near 2^64 never arise from
/// flipping bits of a small valid segment).
std::vector<std::uint8_t> crafted_header(std::uint64_t n_reports, std::uint64_t n_aps,
                                         std::uint64_t raw_wire_bytes,
                                         std::uint64_t n_blocks) {
  std::vector<std::uint8_t> out(tsdb::kMagic.begin(), tsdb::kMagic.end());
  put_u32le(out, tsdb::kFormatVersion);
  put_u32le(out, 1);  // network id
  put_u32le(out, 0);  // batch seq
  wire::put_varint(out, n_reports);
  wire::put_varint(out, n_aps);
  wire::put_varint(out, raw_wire_bytes);
  wire::put_varint(out, n_blocks);
  return out;
}

void append_crafted_block(std::vector<std::uint8_t>& out, tsdb::ColumnId id,
                          tsdb::Encoding enc, std::uint64_t rows, std::uint64_t len,
                          std::span<const std::uint8_t> payload, std::int64_t min = 0,
                          std::int64_t max = 0) {
  out.push_back(static_cast<std::uint8_t>(id));
  out.push_back(static_cast<std::uint8_t>(enc));
  wire::put_varint(out, rows);
  wire::put_varint(out, wire::zigzag_encode(min));
  wire::put_varint(out, wire::zigzag_encode(max));
  wire::put_varint(out, len);
  out.insert(out.end(), payload.begin(), payload.end());
  put_u32le(out, crc32(payload));
}

void append_trailer_crc(std::vector<std::uint8_t>& out) {
  const std::span<const std::uint8_t> guarded{out.data() + tsdb::kMagic.size(),
                                              out.size() - tsdb::kMagic.size()};
  put_u32le(out, crc32(guarded));
}

TEST(SegmentFuzz, BlockLenVarintNearU64MaxIsTruncatedNotOutOfBounds) {
  // A block-length varint >= 2^64-8 once wrapped the `len + crc + trailer`
  // truncation sum and sent an out-of-bounds count into subspan. Must be a
  // typed truncation (ASan holds the no-OOB line).
  auto bytes = crafted_header(/*n_reports=*/1, /*n_aps=*/1, /*raw_wire_bytes=*/100,
                              /*n_blocks=*/1);
  append_crafted_block(bytes, tsdb::ColumnId::kApId, tsdb::Encoding::kDeltaZigzag,
                       /*rows=*/1, /*len=*/~std::uint64_t{0} - 7, {});
  append_trailer_crc(bytes);
  EXPECT_EQ(tsdb::SegmentReader::validate(bytes).status, tsdb::Status::kTruncated);
}

TEST(SegmentFuzz, Fixed64RowsNearU64MaxIsBadCountNotOverflow) {
  // rows=2^61 made `rows * 8` wrap to 0, matching an empty payload exactly
  // and sending the decoder into a 2^61-row reserve.
  auto bytes = crafted_header(1, 1, 100, 1);
  append_crafted_block(bytes, tsdb::ColumnId::kNbrRssi, tsdb::Encoding::kFixed64,
                       /*rows=*/std::uint64_t{1} << 61, /*len=*/0, {});
  append_trailer_crc(bytes);
  EXPECT_EQ(tsdb::SegmentReader::validate(bytes).status, tsdb::Status::kBadCount);
}

TEST(SegmentFuzz, ConstantDictHugeRowsIsBadCountNotAllocCrash) {
  // Width-0 packed indices (single-entry dictionary) put no payload-derived
  // bound on rows; only the row bound checked before decoding stands
  // between a crafted 2^61 row count and an uncaught bad_alloc.
  std::vector<std::uint8_t> payload;
  wire::put_varint(payload, 1);                        // dict size
  wire::put_varint(payload, wire::zigzag_encode(5));   // lone entry
  auto bytes = crafted_header(1, 1, 100, 1);
  append_crafted_block(bytes, tsdb::ColumnId::kUsageTx, tsdb::Encoding::kDictVarint,
                       /*rows=*/std::uint64_t{1} << 61, payload.size(), payload);
  append_trailer_crc(bytes);
  EXPECT_EQ(tsdb::SegmentReader::validate(bytes).status, tsdb::Status::kBadCount);
}

/// The peak RSS growth, in KB, of running `fn` in a forked child. A child
/// starts its own high-water mark, so no earlier test in this binary can
/// hide the growth.
long peak_growth_kb(const std::function<void()>& fn) {
  const auto maxrss_kb = [] {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return usage.ru_maxrss;
  };
  int fds[2];
  if (pipe(fds) != 0) return -1;
  const pid_t pid = fork();
  if (pid == 0) {
    close(fds[0]);
    const long before = maxrss_kb();
    fn();
    const long growth = maxrss_kb() - before;
    const bool sent = write(fds[1], &growth, sizeof growth) == sizeof growth;
    _exit(sent ? 0 : 1);
  }
  close(fds[1]);
  long growth = -1;
  if (pid < 0 || read(fds[0], &growth, sizeof growth) != sizeof growth) growth = -1;
  close(fds[0]);
  int status = 0;
  if (pid > 0) waitpid(pid, &status, 0);
  return growth;
}

/// Zero-width dictionary payload: one entry, so the packed indices take no
/// bytes and the block's row count is bounded by nothing in its payload.
std::vector<std::uint8_t> constant_dict_payload() {
  std::vector<std::uint8_t> payload;
  wire::put_varint(payload, 1);                       // dict size
  wire::put_varint(payload, wire::zigzag_encode(5));  // lone entry
  return payload;
}

TEST(SegmentFuzz, ConstantDictRowsAreBoundedBeforeDecoding) {
  // A CRC-valid 46-byte segment: a one-report header claiming the largest
  // raw_wire_bytes its size allows, and one zero-width firmware block
  // claiming that many rows. Bounded by raw_wire_bytes alone, the block
  // decoded 2.6M rows (about 20 MB) before the row check refused it; a
  // per-report column may hold no more rows than the header's reports.
  constexpr std::uint64_t kRaw = 40 * (std::uint64_t{1} << 16);
  const auto payload = constant_dict_payload();
  auto one_block = crafted_header(/*n_reports=*/1, /*n_aps=*/1, kRaw, /*n_blocks=*/1);
  append_crafted_block(one_block, tsdb::ColumnId::kFirmware, tsdb::Encoding::kDictVarint,
                       kRaw, payload.size(), payload);
  append_trailer_crc(one_block);
  ASSERT_EQ(one_block.size(), 46u);

  // Every per-report column, the MAC dictionary and a child column after
  // its count column, each a zero-width block claiming the same rows: a
  // bound shared by every block let each one claim it again.
  const std::vector<tsdb::ColumnId> columns = {
      tsdb::ColumnId::kApId,      tsdb::ColumnId::kTimestamp,     tsdb::ColumnId::kFirmware,
      tsdb::ColumnId::kUsageCount, tsdb::ColumnId::kUtilCount,    tsdb::ColumnId::kNeighborCount,
      tsdb::ColumnId::kLinkCount, tsdb::ColumnId::kClientCount,   tsdb::ColumnId::kMacDict,
      tsdb::ColumnId::kUsageTx,   tsdb::ColumnId::kMeshRelayUs};
  auto many_blocks = crafted_header(1, 1, 100 * (std::uint64_t{1} << 16), columns.size());
  for (const tsdb::ColumnId id : columns) {
    append_crafted_block(many_blocks, id, tsdb::Encoding::kDictVarint,
                         id == tsdb::ColumnId::kUsageCount ? 1 : 100 * (std::uint64_t{1} << 16),
                         payload.size(), payload);
  }
  append_trailer_crc(many_blocks);
  ASSERT_LE(many_blocks.size(), 200u);

  for (const auto* bytes : {&one_block, &many_blocks}) {
    SCOPED_TRACE(testing::Message() << bytes->size() << "-byte segment");
    EXPECT_EQ(tsdb::SegmentReader::validate(*bytes).status, tsdb::Status::kBadCount);
    expect_typed_outcome(*bytes);
    const long growth_kb = peak_growth_kb([bytes] {
      (void)tsdb::SegmentReader::validate(*bytes);
      (void)tsdb::SegmentReader::for_each(*bytes, [](wire::ApReport&&) {});
    });
    ASSERT_GE(growth_kb, 0) << "the measuring child failed";
    EXPECT_LT(growth_kb, 4096) << "decoding a crafted segment grew RSS by " << growth_kb
                               << " KB";
  }
}

TEST(SegmentFuzz, ChildBlockRowsAreBoundedByItsCountColumn) {
  // A child column holds the rows its count column's reports claim, so a
  // child block claiming more, or coming before its count column (the
  // writer emits columns in id order), is refused before it is decoded.
  const auto payload = constant_dict_payload();  // every row is 5
  auto before_count = crafted_header(1, 1, 1000, 2);
  append_crafted_block(before_count, tsdb::ColumnId::kUsageTx, tsdb::Encoding::kDictVarint,
                       5, payload.size(), payload);
  append_crafted_block(before_count, tsdb::ColumnId::kUsageCount, tsdb::Encoding::kDictVarint,
                       1, payload.size(), payload);
  append_trailer_crc(before_count);
  auto past_count = crafted_header(1, 1, 1000, 2);
  append_crafted_block(past_count, tsdb::ColumnId::kUsageCount, tsdb::Encoding::kDictVarint, 1,
                       payload.size(), payload);
  append_crafted_block(past_count, tsdb::ColumnId::kUsageTx, tsdb::Encoding::kDictVarint, 6,
                       payload.size(), payload);
  append_trailer_crc(past_count);
  for (const auto* bytes : {&before_count, &past_count}) {
    std::vector<wire::ApReport> decoded;
    const auto err = tsdb::SegmentReader::for_each(
        *bytes, [&](wire::ApReport&& r) { decoded.push_back(std::move(r)); });
    EXPECT_EQ(err.status, tsdb::Status::kBadCount) << err.detail;
    EXPECT_NE(err.detail.find("child"), std::string::npos) << err.detail;
    EXPECT_TRUE(decoded.empty());
    expect_typed_outcome(*bytes);
  }
}

TEST(SegmentFuzz, RawWireBytesNearU64MaxFailsInTheHeader) {
  // raw_wire_bytes is the ceiling later row/count checks lean on, so a
  // 2^64-1 claim must die in walk_header before any block is trusted.
  auto bytes = crafted_header(0, 0, ~std::uint64_t{0}, 0);
  append_trailer_crc(bytes);
  EXPECT_EQ(tsdb::SegmentReader::validate(bytes).status, tsdb::Status::kBadCount);
}

TEST(SegmentFuzz, ChildCountNearU64MaxIsBadCountNotWrappedSum) {
  // Per-report child counts of 2^63+2^63 wrap to 0, matching absent child
  // columns; checked_sum must reject each count on its own.
  const std::uint64_t half = std::uint64_t{1} << 63;
  // The count block's min/max claim INT64_MIN, the writer's summary for
  // these rows, so only the row checks stand in the attack's way.
  const auto half_signed = static_cast<std::int64_t>(half);
  std::vector<std::uint8_t> count_payload;
  wire::put_varint(count_payload, half);
  wire::put_varint(count_payload, half);
  std::vector<std::uint8_t> plain1;  // value 0 per row, two rows
  plain1.push_back(0);
  plain1.push_back(0);
  auto bytes = crafted_header(/*n_reports=*/2, /*n_aps=*/1, /*raw_wire_bytes=*/1000,
                              /*n_blocks=*/8);
  append_crafted_block(bytes, tsdb::ColumnId::kApId, tsdb::Encoding::kVarint, 2, 2,
                       plain1);
  append_crafted_block(bytes, tsdb::ColumnId::kTimestamp, tsdb::Encoding::kDeltaZigzag,
                       2, 2, plain1);
  append_crafted_block(bytes, tsdb::ColumnId::kFirmware, tsdb::Encoding::kVarint, 2, 2,
                       plain1);
  append_crafted_block(bytes, tsdb::ColumnId::kUsageCount, tsdb::Encoding::kVarint, 2,
                       count_payload.size(), count_payload, half_signed, half_signed);
  append_crafted_block(bytes, tsdb::ColumnId::kUtilCount, tsdb::Encoding::kVarint, 2, 2,
                       plain1);
  append_crafted_block(bytes, tsdb::ColumnId::kNeighborCount, tsdb::Encoding::kVarint, 2,
                       2, plain1);
  append_crafted_block(bytes, tsdb::ColumnId::kLinkCount, tsdb::Encoding::kVarint, 2, 2,
                       plain1);
  append_crafted_block(bytes, tsdb::ColumnId::kClientCount, tsdb::Encoding::kVarint, 2,
                       2, plain1);
  append_trailer_crc(bytes);
  std::vector<wire::ApReport> decoded;
  const auto err = tsdb::SegmentReader::for_each(
      bytes, [&](wire::ApReport&& r) { decoded.push_back(std::move(r)); });
  EXPECT_EQ(err.status, tsdb::Status::kBadCount);
  EXPECT_TRUE(decoded.empty());
}

TEST(SegmentFuzz, DeltaSumPastInt64MaxWrapsInsteadOfOverflowing) {
  // Two INT64_MAX deltas sum past INT64_MAX. The reader's running sum wraps
  // (the UBSan lane holds the no-signed-overflow line), and the block still
  // fails typed: its AP ids decode, but every other per-report column is
  // missing.
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  std::vector<std::uint8_t> payload;
  wire::put_varint(payload, wire::zigzag_encode(kMax));
  wire::put_varint(payload, wire::zigzag_encode(kMax));
  auto bytes = crafted_header(/*n_reports=*/2, /*n_aps=*/2, /*raw_wire_bytes=*/100,
                              /*n_blocks=*/1);
  append_crafted_block(bytes, tsdb::ColumnId::kApId, tsdb::Encoding::kDeltaZigzag, 2,
                       payload.size(), payload, /*min=*/-2, /*max=*/kMax);
  append_trailer_crc(bytes);
  EXPECT_EQ(tsdb::SegmentReader::validate(bytes).status, tsdb::Status::kBadCount);
}

TEST(SegmentFuzz, EncodingOfTheOtherFamilyIsRefused) {
  // An integer column sent as f64 words (or an RSSI column as integers)
  // passes every CRC; the writer never seals either, so validate() refuses
  // both. Their rows are bit patterns either way, so for_each() stays in
  // bounds.
  const std::array<std::uint8_t, 8> words{};
  auto bytes = crafted_header(1, 1, 100, 1);
  append_crafted_block(bytes, tsdb::ColumnId::kFirmware, tsdb::Encoding::kFixed64, 1,
                       words.size(), words);
  append_trailer_crc(bytes);
  EXPECT_TRUE(tsdb::SegmentReader::validate(bytes));
  expect_typed_outcome(bytes);
  const std::array<std::uint8_t, 1> varint{0};
  bytes = crafted_header(1, 1, 100, 1);
  append_crafted_block(bytes, tsdb::ColumnId::kClientRssi, tsdb::Encoding::kVarint, 1,
                       varint.size(), varint);
  append_trailer_crc(bytes);
  EXPECT_TRUE(tsdb::SegmentReader::validate(bytes));
  expect_typed_outcome(bytes);
}

TEST(SegmentFuzz, DescendingApColumnIsNotCanonical) {
  // The writer seals whatever order it is fed, so a re-seal reproduces an
  // AP column that reads [5, 3]; validate() refuses it on its own, since a
  // vault indexes AP ids as an ascending set.
  tsdb::SegmentWriter writer(4, 0);
  for (const std::uint32_t ap : {5u, 3u}) {
    wire::ApReport r;
    r.ap_id = ap;
    r.timestamp_us = 1'000'000;
    writer.add(r);
  }
  const auto bytes = writer.seal();
  const auto err = tsdb::SegmentReader::validate(bytes);
  EXPECT_EQ(err.status, tsdb::Status::kNotCanonical) << err.detail;
  expect_typed_outcome(bytes);
}

/// One report with one utilization row, framed block by block as the
/// writer seals it, except that the row's band may be any u64 where the
/// writer only ever sees a u8.
std::vector<std::uint8_t> one_util_row_segment(std::uint64_t band,
                                               std::uint64_t raw_wire_bytes) {
  using C = tsdb::ColumnId;
  constexpr auto kPlain = tsdb::Encoding::kVarint;
  constexpr auto kDelta = tsdb::Encoding::kDeltaZigzag;
  struct Col {
    C id;
    tsdb::Encoding encoding;
    std::uint64_t value;
  };
  const std::array<Col, 14> cols{{{C::kApId, kDelta, 7},
                                  {C::kTimestamp, kDelta, 1000},
                                  {C::kFirmware, kPlain, 1},
                                  {C::kUsageCount, kPlain, 0},
                                  {C::kUtilCount, kPlain, 1},
                                  {C::kNeighborCount, kPlain, 0},
                                  {C::kLinkCount, kPlain, 0},
                                  {C::kClientCount, kPlain, 0},
                                  {C::kUtilBand, kPlain, band},
                                  {C::kUtilChannel, kDelta, 36},
                                  {C::kUtilCycle, kPlain, 1000},
                                  {C::kUtilBusy, kPlain, 10},
                                  {C::kUtilRxFrame, kPlain, 0},
                                  {C::kUtilTx, kPlain, 0}}};
  auto bytes = crafted_header(1, 1, raw_wire_bytes, cols.size());
  for (const Col& c : cols) {
    std::vector<std::uint8_t> payload;
    const auto v = static_cast<std::int64_t>(c.value);
    wire::put_varint(payload, c.encoding == kDelta ? wire::zigzag_encode(v) : c.value);
    append_crafted_block(bytes, c.id, c.encoding, 1, payload.size(), payload, v, v);
  }
  append_trailer_crc(bytes);
  return bytes;
}

TEST(SegmentFuzz, ValueWiderThanItsFieldIsNotCanonical) {
  // validate() rebuilds the writer's columns through the typed fields, so a
  // band of 300 decodes as the u8 44 and re-seals as 44, not as 300.
  wire::ApReport r;
  r.ap_id = 7;
  r.timestamp_us = 1000;
  r.firmware = 1;
  wire::ChannelUtilization util;
  util.band = 44;
  util.channel = 36;
  util.cycle_us = 1000;
  util.busy_us = 10;
  r.utilization.push_back(util);
  tsdb::SegmentWriter writer(1, 0);
  writer.add(r);
  const std::uint64_t raw = writer.raw_wire_bytes();
  ASSERT_EQ(one_util_row_segment(44, raw), writer.seal()) << "the crafted framing drifted";

  const auto wide = one_util_row_segment(44 + 256, raw);
  std::vector<wire::ApReport> decoded;
  ASSERT_FALSE(tsdb::SegmentReader::for_each(
      wide, [&](wire::ApReport&& d) { decoded.push_back(std::move(d)); }));
  ASSERT_EQ(decoded.size(), 1u);
  EXPECT_EQ(decoded[0], r);
  EXPECT_EQ(tsdb::SegmentReader::validate(wide).status, tsdb::Status::kNotCanonical);
}

TEST(SegmentFuzz, WrongMagicIsTyped) {
  auto mutated = valid_segment();
  mutated[0] = 'X';
  EXPECT_EQ(tsdb::SegmentReader::validate(mutated).status, tsdb::Status::kBadMagic);
}

TEST(SegmentFuzz, VersionBumpFailsClosedEvenWithValidCrc) {
  // A future format revision must fail kBadVersion, not half-parse — even
  // when the trailer CRC is made internally consistent.
  auto mutated = valid_segment();
  const std::size_t version_at = tsdb::kMagic.size();
  mutated[version_at] = 0xFF;
  reseal_trailer_crc(mutated);
  EXPECT_EQ(tsdb::SegmentReader::validate(mutated).status, tsdb::Status::kBadVersion);
}

TEST(SegmentFuzz, CrcValidTamperedCountIsBadCount) {
  // Bump the header's n_reports varint (12 -> 13 stays one byte), reseal
  // the trailer CRC: every CRC in the file now passes, but the column row
  // counts disagree with the header. kBadCount territory.
  auto mutated = valid_segment();
  const std::size_t n_reports_at = tsdb::kMagic.size() + 4 + 4 + 4;
  ASSERT_EQ(mutated[n_reports_at], 12) << "batch size changed; fix the offset math";
  mutated[n_reports_at] = 13;
  reseal_trailer_crc(mutated);
  EXPECT_EQ(tsdb::SegmentReader::validate(mutated).status, tsdb::Status::kBadCount);
  std::vector<wire::ApReport> decoded;
  const auto err = tsdb::SegmentReader::for_each(
      mutated, [&](wire::ApReport&& r) { decoded.push_back(std::move(r)); });
  EXPECT_EQ(err.status, tsdb::Status::kBadCount);
  EXPECT_TRUE(decoded.empty());
}

TEST(SegmentFuzz, CrcValidTamperedApCountIsTyped) {
  // Same trick on n_aps: the distinct-AP summary disagrees with the AP id
  // column's actual cardinality, so the writer would not seal this header.
  auto mutated = valid_segment();
  const std::size_t n_aps_at = tsdb::kMagic.size() + 4 + 4 + 4 + 1;
  ASSERT_EQ(mutated[n_aps_at], 4) << "batch size changed; fix the offset math";
  mutated[n_aps_at] = 3;
  reseal_trailer_crc(mutated);
  EXPECT_EQ(tsdb::SegmentReader::validate(mutated).status, tsdb::Status::kNotCanonical);
  expect_typed_outcome(mutated);
}

}  // namespace
}  // namespace wlm

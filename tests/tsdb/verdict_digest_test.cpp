// Pinned segment verdict digest: the reader's full verdict table over
// seeded mutants of one segment, folded into one constant.
//
// The segment's reports fill every column group (per-report, usage,
// utilization, neighbor, link, client) and the optional mesh pair. Its
// mutants are:
//   - every truncation, bare and with the trailer CRC recomputed over the
//     prefix;
//   - every single-bit flip between the magic and the trailer, with the
//     flipped block's payload CRC and the trailer CRC resealed, so only
//     the structural checks can object;
//   - rewritten header counts and block row counts and min/max summaries,
//     each block reframed with its CRCs intact.
//
// The digest folds each mutant's validate() and for_each() Status and the
// wire encoding of every report for_each() decodes. A change to what the
// reader accepts, how it classifies a failure, or what it decodes moves the
// constant; a change to a diagnostic's wording does not. Every mutant
// validate() accepts must also be byte for byte what SegmentWriter seals
// for the reports for_each() decodes from it.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "core/checksum.hpp"
#include "core/rng.hpp"
#include "tsdb/segment.hpp"
#include "wire/encoder.hpp"
#include "wire/messages.hpp"
#include "wire/varint.hpp"

namespace wlm {
namespace {

std::vector<wire::ApReport> all_groups_batch() {
  Rng rng(2501);
  std::vector<wire::ApReport> reports;
  for (std::uint32_t ap = 300; ap < 303; ++ap) {
    for (int k = 0; k < 2; ++k) {
      wire::ApReport r;
      r.ap_id = ap;
      r.timestamp_us = 600'000'000LL * (k + 1) + ap;
      r.firmware = 25 + static_cast<std::uint32_t>(ap % 2);
      if (ap == 301) {
        r.mesh_hops = 1 + static_cast<std::uint32_t>(k);
        r.mesh_relay_us = 1200 + rng.next_u64() % 800;
      }
      for (int i = 0; i < 2; ++i) {
        wire::ClientUsage u;
        u.client = MacAddress::from_u64(0x3c0754000000ULL + rng.next_u64() % 4);
        u.app_id = static_cast<std::uint32_t>(rng.next_u64() % 12);
        u.tx_bytes = rng.next_u64() % 50'000;
        u.rx_bytes = rng.next_u64() % 400'000;
        r.usage.push_back(u);
      }
      for (int band = 0; band < 2; ++band) {
        wire::ChannelUtilization c;
        c.band = static_cast<std::uint8_t>(band);
        c.channel = band == 0 ? 11 : 44;
        c.cycle_us = 1'000'000;
        c.busy_us = rng.next_u64() % 1'000'000;
        c.rx_frame_us = c.busy_us / 3;
        c.tx_us = c.busy_us / 5;
        r.utilization.push_back(c);
      }
      for (int i = 0; i < 2; ++i) {
        wire::NeighborBss n;
        n.bssid = MacAddress::from_u64(0x88154E000000ULL + rng.next_u64() % 3);
        n.band = static_cast<std::uint8_t>(i);
        n.channel = i == 0 ? 1 + static_cast<std::int32_t>(rng.next_u64() % 11) : 149;
        n.rssi_dbm = -40.0 - static_cast<double>(rng.next_u64() % 40);
        n.is_hotspot = k == 1;
        n.is_same_fleet = i == 1;
        r.neighbors.push_back(n);
      }
      wire::LinkProbeWindow l;
      l.from_ap = ap == 300 ? 302 : ap - 1;
      l.band = 1;
      l.channel = 36;
      l.probes_expected = 300;
      l.probes_received = 250 + static_cast<std::uint32_t>(rng.next_u64() % 50);
      r.links.push_back(l);
      wire::ClientSnapshot s;
      s.client = MacAddress::from_u64(0x3c0754000000ULL + rng.next_u64() % 4);
      s.capability_bits = static_cast<std::uint32_t>(rng.next_u64() % 64);
      s.band = static_cast<std::uint8_t>(k);
      s.rssi_dbm = -52.5 - static_cast<double>(rng.next_u64() % 9);
      s.os_id = static_cast<std::uint8_t>(rng.next_u64() % 6);
      r.clients.push_back(s);
      reports.push_back(std::move(r));
    }
  }
  return reports;
}

void put_u32le(std::uint8_t* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

void append_u32le(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.resize(out.size() + 4);
  put_u32le(out.data() + out.size() - 4, v);
}

/// Recomputes the trailer CRC over everything between the magic and it.
void reseal_trailer(std::vector<std::uint8_t>& bytes) {
  const std::size_t guarded = bytes.size() - tsdb::kMagic.size() - 4;
  put_u32le(bytes.data() + bytes.size() - 4,
            crc32({bytes.data() + tsdb::kMagic.size(), guarded}));
}

/// One block frame of the pristine segment, parsed by the test itself so
/// the mutants do not depend on the reader they exercise.
struct Frame {
  std::uint8_t id = 0, encoding = 0;
  std::uint64_t rows = 0;
  std::int64_t min = 0, max = 0;
  std::size_t payload_at = 0, payload_len = 0;
};

struct Layout {
  std::size_t counts_at = 0;  // first header varint (n_reports)
  std::array<std::uint64_t, 4> counts{};  // n_reports, n_aps, raw_wire_bytes, n_blocks
  std::vector<Frame> frames;
};

Layout parse_layout(const std::vector<std::uint8_t>& bytes) {
  Layout l;
  const std::uint8_t* p = bytes.data() + tsdb::kMagic.size() + 12;
  const std::uint8_t* end = bytes.data() + bytes.size();
  l.counts_at = static_cast<std::size_t>(p - bytes.data());
  for (auto& c : l.counts) p = wire::parse_varint(p, end, c);
  for (std::uint64_t b = 0; b < l.counts[3]; ++b) {
    Frame f;
    f.id = *p++;
    f.encoding = *p++;
    std::uint64_t zmin = 0, zmax = 0, len = 0;
    p = wire::parse_varint(p, end, f.rows);
    p = wire::parse_varint(p, end, zmin);
    p = wire::parse_varint(p, end, zmax);
    p = wire::parse_varint(p, end, len);
    f.min = wire::zigzag_decode(zmin);
    f.max = wire::zigzag_decode(zmax);
    f.payload_at = static_cast<std::size_t>(p - bytes.data());
    f.payload_len = len;
    p += len + 4;
    l.frames.push_back(f);
  }
  EXPECT_EQ(static_cast<std::size_t>(end - p), 4u) << "layout walk missed the trailer";
  return l;
}

/// Rebuilds a segment from `l` (counts and frames possibly edited) with
/// every CRC valid.
std::vector<std::uint8_t> reframe(const std::vector<std::uint8_t>& pristine,
                                  const Layout& l) {
  std::vector<std::uint8_t> out(pristine.begin(),
                                pristine.begin() + static_cast<std::ptrdiff_t>(l.counts_at));
  for (const std::uint64_t c : l.counts) wire::put_varint(out, c);
  for (const Frame& f : l.frames) {
    out.push_back(f.id);
    out.push_back(f.encoding);
    wire::put_varint(out, f.rows);
    wire::put_varint(out, wire::zigzag_encode(f.min));
    wire::put_varint(out, wire::zigzag_encode(f.max));
    wire::put_varint(out, f.payload_len);
    const std::span<const std::uint8_t> payload{pristine.data() + f.payload_at, f.payload_len};
    out.insert(out.end(), payload.begin(), payload.end());
    append_u32le(out, crc32(payload));
  }
  append_u32le(out, 0);
  reseal_trailer(out);
  return out;
}

struct Verdicts {
  std::uint32_t crc = 0;
  // Indexed by tsdb::Status: what validate() and for_each() each returned.
  std::array<int, 9> validate{}, for_each{};
  int mutants = 0;
};

/// The writer's segment for `reports` under `bytes`' header: what
/// validate() must have reproduced to accept `bytes`. Built on the report
/// path (for_each, SegmentWriter::add, seal), with the header's network id,
/// batch number and raw_wire_bytes, the last reframed in by the test.
std::vector<std::uint8_t> reseal_reports(std::span<const std::uint8_t> bytes,
                                         const std::vector<wire::ApReport>& reports) {
  const auto u32_at = [&bytes](std::size_t at) {
    std::uint32_t v = 0;
    for (std::size_t i = 0; i < 4; ++i) v |= std::uint32_t{bytes[at + i]} << (8 * i);
    return v;
  };
  // The network id and batch number follow the magic and the version.
  tsdb::SegmentWriter writer(u32_at(tsdb::kMagic.size() + 4), u32_at(tsdb::kMagic.size() + 8));
  for (const wire::ApReport& r : reports) writer.add(r);
  const std::vector<std::uint8_t> sealed = writer.seal();
  Layout l = parse_layout(sealed);
  l.counts[2] = parse_layout({bytes.begin(), bytes.end()}).counts[2];
  return reframe(sealed, l);
}

void fold(Verdicts& v, std::span<const std::uint8_t> bytes) {
  std::vector<wire::ApReport> decoded;
  const tsdb::Error err = tsdb::SegmentReader::for_each(
      bytes, [&decoded](wire::ApReport&& r) { decoded.push_back(std::move(r)); });
  const tsdb::Error verr = tsdb::SegmentReader::validate(bytes);
  // The reader contract: a for_each() error is validate()'s too, and
  // validate() accepts exactly the writer's segment for what for_each()
  // decodes.
  if (err) {
    EXPECT_TRUE(decoded.empty()) << "partial decode of mutant " << v.mutants;
    EXPECT_EQ(verr.status, err.status) << "validate and for_each disagree on mutant " << v.mutants;
  }
  if (verr.ok()) {
    EXPECT_TRUE(err.ok()) << "for_each refuses mutant " << v.mutants;
    const std::vector<std::uint8_t> resealed = reseal_reports(bytes, decoded);
    EXPECT_TRUE(std::equal(bytes.begin(), bytes.end(), resealed.begin(), resealed.end()))
        << "validate accepts mutant " << v.mutants << ", which is not writer output";
  }
  const std::array<std::uint8_t, 2> status{static_cast<std::uint8_t>(verr.status),
                                           static_cast<std::uint8_t>(err.status)};
  v.crc = crc32_update(v.crc, status);
  for (const wire::ApReport& r : decoded) {
    wire::Encoder encoder;
    wire::encode_report_into(r, encoder);
    v.crc = crc32_update(v.crc, encoder.bytes());
  }
  v.validate.at(status[0]) += 1;
  v.for_each.at(status[1]) += 1;
  v.mutants += 1;
}

Verdicts verdict_table() {
  const std::vector<wire::ApReport> reports = all_groups_batch();
  tsdb::SegmentWriter writer(25, 3);
  for (const auto& r : reports) writer.add(r);
  const std::vector<std::uint8_t> pristine = writer.seal();
  const Layout layout = parse_layout(pristine);
  Verdicts v;

  // The pristine segment first: it must decode to exactly its input.
  {
    std::vector<wire::ApReport> decoded;
    EXPECT_FALSE(tsdb::SegmentReader::for_each(
        pristine, [&decoded](wire::ApReport&& r) { decoded.push_back(std::move(r)); }));
    EXPECT_EQ(decoded, reports);
    EXPECT_EQ(layout.frames.size(), 36u) << "a column group or the mesh pair is missing";
    fold(v, pristine);
  }

  // Truncations, bare and with a trailer recomputed over the prefix.
  for (std::size_t cut = 0; cut < pristine.size(); ++cut) {
    fold(v, std::span(pristine).first(cut));
    if (cut <= tsdb::kMagic.size()) continue;
    std::vector<std::uint8_t> prefix(pristine.begin(),
                                     pristine.begin() + static_cast<std::ptrdiff_t>(cut));
    append_u32le(prefix, 0);
    reseal_trailer(prefix);
    fold(v, prefix);
  }

  // Single-bit flips with the block and trailer CRCs resealed.
  for (std::size_t at = tsdb::kMagic.size(); at + 4 < pristine.size(); ++at) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<std::uint8_t> m = pristine;
      m[at] ^= static_cast<std::uint8_t>(1u << bit);
      for (const Frame& f : layout.frames) {
        if (at >= f.payload_at && at < f.payload_at + f.payload_len) {
          put_u32le(m.data() + f.payload_at + f.payload_len,
                    crc32({m.data() + f.payload_at, f.payload_len}));
        }
      }
      reseal_trailer(m);
      fold(v, m);
    }
  }

  // Rewritten header counts, block row counts and block summaries.
  Rng rng(2502);
  const auto variants = [&rng](std::uint64_t x) {
    return std::array<std::uint64_t, 6>{x - 1, x + 1, 0, 2 * x, rng.next_u64() % 64,
                                        rng.next_u64()};
  };
  for (std::size_t c = 0; c < layout.counts.size(); ++c) {
    for (const std::uint64_t value : variants(layout.counts[c])) {
      Layout l = layout;
      l.counts[c] = value;
      fold(v, reframe(pristine, l));
    }
  }
  constexpr std::int64_t kI64Max = std::numeric_limits<std::int64_t>::max();
  constexpr std::int64_t kI64Min = std::numeric_limits<std::int64_t>::min();
  for (std::size_t b = 0; b < layout.frames.size(); ++b) {
    for (const std::uint64_t value : variants(layout.frames[b].rows)) {
      Layout l = layout;
      l.frames[b].rows = value;
      fold(v, reframe(pristine, l));
    }
    for (std::int64_t Frame::*field : {&Frame::min, &Frame::max}) {
      const std::int64_t x = layout.frames[b].*field;
      for (const std::int64_t value :
           {x - 1, x + 1, std::int64_t{0}, kI64Min, kI64Max,
            static_cast<std::int64_t>(rng.next_u64())}) {
        Layout l = layout;
        l.frames[b].*field = value;
        fold(v, reframe(pristine, l));
      }
    }
  }
  return v;
}

// Pinned when each block's rows became bounded by its column before
// decoding; any change to what the reader accepts, how it classifies a
// failure, or what it decodes moves it.
constexpr std::uint32_t kPinned = 0xec0dfe31;

TEST(SegmentVerdictDigest, SeededMutantsKeepTheirVerdicts) {
  const Verdicts v = verdict_table();
  std::printf("segment verdicts: %d mutants", v.mutants);
  for (const auto& [name, counts] : {std::pair{"validate", &v.validate},
                                     std::pair{"for_each", &v.for_each}}) {
    std::printf("; %s", name);
    for (std::size_t s = 0; s < counts->size(); ++s) {
      if ((*counts)[s] != 0) {
        std::printf(" %s %d", tsdb::status_name(static_cast<tsdb::Status>(s)), (*counts)[s]);
      }
    }
  }
  std::printf("; digest 0x%08x\n", v.crc);
  EXPECT_EQ(v.crc, kPinned) << std::hex << v.crc;
}

}  // namespace
}  // namespace wlm

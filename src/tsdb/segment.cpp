#include "tsdb/segment.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>
#include <new>
#include <optional>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "ckpt/container.hpp"
#include "core/checksum.hpp"
#include "wire/encoder.hpp"
#include "wire/varint.hpp"

namespace wlm::tsdb {

namespace {

constexpr std::size_t kHeaderFixedBytes = 8 + 4 + 4 + 4;  // magic + 3 u32s
constexpr std::size_t kTrailerBytes = 4;
/// Columnar sealing never shrinks the row-oriented wire encoding by more
/// than this factor, so a header claiming a larger raw_wire_bytes is lying.
/// The bound keeps raw_wire_bytes usable as a row-count ceiling below.
constexpr std::uint64_t kMaxRawExpansion = std::uint64_t{1} << 16;
/// Hard ceiling on a single report's child-row count (usage/util/neighbor/
/// link/client rows). The fleet tops out around thousands per report; 16M
/// is far past legitimate and small enough that per-group sums stay sane.
constexpr std::uint64_t kMaxChildRowsPerReport = std::uint64_t{1} << 24;

void put_u32le(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 24));
}

std::uint32_t read_u32le(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) | static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 | static_cast<std::uint32_t>(p[3]) << 24;
}

std::uint64_t f64_bits(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

double bits_f64(std::uint64_t bits) {
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

/// Bits needed to address a dictionary of n entries; 0 for a constant
/// column (one entry), where the index stream vanishes entirely.
unsigned index_bits(std::size_t n) {
  return n <= 1 ? 0 : static_cast<unsigned>(std::bit_width(n - 1));
}

/// Packs fixed-width indices LSB-first. Fixed width beats varints for
/// dictionary indices: a 640-entry dictionary addresses in 10 bits where
/// varints spend 8 or 16.
void pack_indices(std::vector<std::uint8_t>& out, const std::vector<std::uint32_t>& idx,
                  unsigned width) {
  std::uint64_t acc = 0;
  unsigned nbits = 0;
  for (const std::uint64_t v : idx) {
    acc |= v << nbits;
    nbits += width;
    while (nbits >= 8) {
      out.push_back(static_cast<std::uint8_t>(acc));
      acc >>= 8;
      nbits -= 8;
    }
  }
  if (nbits > 0) out.push_back(static_cast<std::uint8_t>(acc));
}

/// Bytes pack_indices writes for `rows` indices of `width` bits.
std::size_t packed_size(std::size_t rows, unsigned width) {
  return (rows * width + 7) / 8;
}

/// Dictionary prefix shared by kDictVarint and kDictF64: the entry count,
/// then zigzag varints of each entry's delta from the one before (the
/// first from 0). Ascending entries keep the deltas small.
void put_dict(std::vector<std::uint8_t>& out, const std::vector<std::uint64_t>& dict) {
  wire::put_varint(out, dict.size());
  std::uint64_t prev = 0;
  for (const std::uint64_t d : dict) {
    wire::put_varint(out, wire::zigzag_encode(static_cast<std::int64_t>(d - prev)));
    prev = d;
  }
}

/// Bytes put_dict writes for `dict`.
std::size_t dict_size(const std::vector<std::uint64_t>& dict) {
  std::size_t n = wire::varint_size(dict.size());
  std::uint64_t prev = 0;
  for (const std::uint64_t d : dict) {
    n += wire::varint_size(wire::zigzag_encode(static_cast<std::int64_t>(d - prev)));
    prev = d;
  }
  return n;
}

/// One finished block, framed and ready to append.
struct Block {
  ColumnId id;
  Encoding encoding;
  std::uint64_t rows;
  std::int64_t min = 0, max = 0;
  std::vector<std::uint8_t> payload = {};
};

/// Bytes append_block writes for `b`.
std::size_t framed_size(const Block& b) {
  return 2 + wire::varint_size(b.rows) + wire::varint_size(wire::zigzag_encode(b.min)) +
         wire::varint_size(wire::zigzag_encode(b.max)) + wire::varint_size(b.payload.size()) +
         b.payload.size() + 4;
}

void append_block(std::vector<std::uint8_t>& out, const Block& b) {
  out.push_back(static_cast<std::uint8_t>(b.id));
  out.push_back(static_cast<std::uint8_t>(b.encoding));
  wire::put_varint(out, b.rows);
  wire::put_varint(out, wire::zigzag_encode(b.min));
  wire::put_varint(out, wire::zigzag_encode(b.max));
  wire::put_varint(out, b.payload.size());
  out.insert(out.end(), b.payload.begin(), b.payload.end());
  put_u32le(out, crc32(b.payload));
}

/// Telemetry counters repeat heavily within one network (a few hundred
/// distinct byte counts across thousands of usage rows), so a sorted-dict
/// encoding often beats plain varints. Both sizes are computed exactly
/// before anything is encoded, and only the smaller is written; ties go to
/// the plain encoding.
Block best_u64_block(ColumnId id, const std::vector<std::uint64_t>& col) {
  Block b{id, Encoding::kVarint, col.size()};
  std::size_t plain_size = 0;
  for (const std::uint64_t v : col) plain_size += wire::varint_size(v);
  std::vector<std::uint64_t> dict;
  std::vector<std::uint32_t> ranks;
  build_dict(col, dict, ranks);
  const unsigned width = index_bits(dict.size());
  if (dict_size(dict) + packed_size(col.size(), width) < plain_size) {
    b.encoding = Encoding::kDictVarint;
    put_dict(b.payload, dict);
    pack_indices(b.payload, ranks, width);
  } else {
    b.payload.reserve(plain_size);
    for (const std::uint64_t v : col) wire::put_varint(b.payload, v);
  }
  return b;
}

/// Orders column rows as the signed values the block summaries record.
bool signed_less(std::uint64_t a, std::uint64_t b) {
  return static_cast<std::int64_t>(a) < static_cast<std::int64_t>(b);
}

/// Rows are the two's-complement bits of signed values. Deltas wrap mod
/// 2^64 (the reader's sum wraps back), so no pair of values overflows.
Block delta_block(ColumnId id, const std::vector<std::uint64_t>& col) {
  Block b{id, Encoding::kDeltaZigzag, col.size()};
  std::uint64_t prev = 0;
  for (const std::uint64_t v : col) {
    wire::put_varint(b.payload, wire::zigzag_encode(static_cast<std::int64_t>(v - prev)));
    prev = v;
  }
  return b;
}

/// Rows are IEEE-754 bit patterns.
Block f64_block(ColumnId id, const std::vector<std::uint64_t>& bits) {
  // Dictionary when the value set is small (RSSI streams repeat heavily);
  // raw fixed64 otherwise. The choice depends only on the data, so sealed
  // bytes stay identical across --jobs.
  std::vector<std::uint64_t> dict;
  std::vector<std::uint32_t> ranks;
  if (build_dict(bits, dict, ranks, kMaxF64Dict)) {
    // Sorted bit patterns of same-sign doubles share their high bits, so
    // delta coding the sorted dictionary beats raw fixed64 entries.
    Block b{id, Encoding::kDictF64, bits.size()};
    put_dict(b.payload, dict);
    pack_indices(b.payload, ranks, index_bits(dict.size()));
    return b;
  }
  Block b{id, Encoding::kFixed64, bits.size()};
  for (const std::uint64_t v : bits) {
    for (int i = 0; i < 8; ++i) b.payload.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  return b;
}

// --- the column table --------------------------------------------------------

/// How a column's rows travel.
enum class Kind : std::uint8_t {
  kNone,   // not a column id
  kDelta,  // kDeltaZigzag: the sorted and near-sorted streams
  kBest,   // the smaller of kVarint and kDictVarint
  kF64,    // kDictF64 or kFixed64 over IEEE-754 bit patterns
};

/// How many rows a column holds.
enum class Rows : std::uint8_t {
  kReport,  // one per report
  kChild,   // the sum of its count column over the reports
  kMesh,    // one per report, but sealed only when its count column, the hop
            // count, has a nonzero row: non-mesh segments keep the bytes of
            // the format before the mesh pair
  kDict,    // one per distinct MAC in the segment
};

struct ColumnSpec {
  Kind kind = Kind::kNone;
  Rows rows = Rows::kReport;
  ColumnId count{};   // kChild and kMesh: the column named above
  bool mac = false;   // rows index the MAC dictionary
};

constexpr std::size_t slot(ColumnId id) { return static_cast<std::size_t>(id); }

/// Every column of the format, keyed by id. The writer and the reader's
/// row checks work from this table; the fields() lists below say which
/// field of which row type fills each column.
constexpr std::array<ColumnSpec, kColumnSlots> kColumns = [] {
  using C = ColumnId;
  using K = Kind;
  std::array<ColumnSpec, kColumnSlots> t{};
  const auto report = [&t](C id, K kind) { t[slot(id)] = {kind, Rows::kReport}; };
  const auto child = [&t](C count, C id, K kind, bool mac = false) {
    t[slot(id)] = {kind, Rows::kChild, count, mac};
  };
  report(C::kApId, K::kDelta);
  report(C::kTimestamp, K::kDelta);
  report(C::kFirmware, K::kBest);
  report(C::kUsageCount, K::kBest);
  report(C::kUtilCount, K::kBest);
  report(C::kNeighborCount, K::kBest);
  report(C::kLinkCount, K::kBest);
  report(C::kClientCount, K::kBest);
  t[slot(C::kMacDict)] = {K::kDelta, Rows::kDict};
  child(C::kUsageCount, C::kUsageClient, K::kBest, /*mac=*/true);
  child(C::kUsageCount, C::kUsageApp, K::kBest);
  child(C::kUsageCount, C::kUsageTx, K::kBest);
  child(C::kUsageCount, C::kUsageRx, K::kBest);
  child(C::kUtilCount, C::kUtilBand, K::kBest);
  child(C::kUtilCount, C::kUtilChannel, K::kDelta);
  child(C::kUtilCount, C::kUtilCycle, K::kBest);
  child(C::kUtilCount, C::kUtilBusy, K::kBest);
  child(C::kUtilCount, C::kUtilRxFrame, K::kBest);
  child(C::kUtilCount, C::kUtilTx, K::kBest);
  child(C::kNeighborCount, C::kNbrBssid, K::kBest, /*mac=*/true);
  child(C::kNeighborCount, C::kNbrBand, K::kBest);
  child(C::kNeighborCount, C::kNbrChannel, K::kDelta);
  child(C::kNeighborCount, C::kNbrRssi, K::kF64);
  child(C::kNeighborCount, C::kNbrFlags, K::kBest);
  child(C::kLinkCount, C::kLinkFrom, K::kDelta);
  child(C::kLinkCount, C::kLinkBand, K::kBest);
  child(C::kLinkCount, C::kLinkChannel, K::kDelta);
  child(C::kLinkCount, C::kLinkExpected, K::kBest);
  child(C::kLinkCount, C::kLinkReceived, K::kBest);
  child(C::kClientCount, C::kClientMac, K::kBest, /*mac=*/true);
  child(C::kClientCount, C::kClientCaps, K::kBest);
  child(C::kClientCount, C::kClientBand, K::kBest);
  child(C::kClientCount, C::kClientRssi, K::kF64);
  child(C::kClientCount, C::kClientOs, K::kBest);
  t[slot(C::kMeshHops)] = {K::kBest, Rows::kMesh, C::kMeshHops};
  t[slot(C::kMeshRelayUs)] = {K::kBest, Rows::kMesh, C::kMeshHops};
  return t;
}();
static_assert(std::all_of(kColumns.begin() + 1, kColumns.end(),
                          [](const ColumnSpec& c) { return c.kind != Kind::kNone; }),
              "every column id needs a table entry");

/// Seals one nonempty column as its table entry says. An integer block
/// carries the min/max of its rows as the reader sees them (i64).
Block encode_column(ColumnId id, Kind kind, const std::vector<std::uint64_t>& col) {
  if (kind == Kind::kF64) return f64_block(id, col);
  Block b = kind == Kind::kDelta ? delta_block(id, col) : best_u64_block(id, col);
  const auto [lo, hi] = std::minmax_element(col.begin(), col.end(), signed_less);
  b.min = static_cast<std::int64_t>(*lo);
  b.max = static_cast<std::int64_t>(*hi);
  return b;
}

/// One column per id: u64 rows, f64 values as their bit patterns.
using Columns = std::array<std::vector<std::uint64_t>, kColumnSlots>;

/// Seals one column per id (rows in append order, MACs raw) into a segment
/// whose report and AP counts come from the AP column. `columns` is spent:
/// its MAC rows become dictionary ranks. SegmentWriter::seal and
/// SegmentReader::validate both end here, so a segment is valid exactly
/// when this function reproduces its bytes.
std::vector<std::uint8_t> seal_columns(std::uint32_t network_id, std::uint32_t batch_seq,
                                       std::uint64_t raw_wire_bytes, Columns& columns) {
  // Segment-wide MAC dictionary: client and BSSID MACs are the heaviest
  // repeated values on this wire (7-8 varint bytes each, repeated per row);
  // sorted + delta coded they compress to a few bytes per distinct device,
  // and every reference becomes a small index.
  {
    // Scoped, so the all-MACs copy and its ranks are freed before the
    // blocks are built.
    std::vector<std::uint64_t> macs;
    for (std::size_t id = 0; id < kColumnSlots; ++id) {
      if (kColumns[id].mac) macs.insert(macs.end(), columns[id].begin(), columns[id].end());
    }
    std::vector<std::uint32_t> ranks;
    build_dict(macs, columns[slot(ColumnId::kMacDict)], ranks);
    auto rank = ranks.begin();
    for (std::size_t id = 0; id < kColumnSlots; ++id) {
      if (!kColumns[id].mac) continue;
      for (std::uint64_t& v : columns[id]) v = *rank++;
    }
  }

  std::vector<Block> blocks;
  for (std::size_t id = 0; id < kColumnSlots; ++id) {
    const ColumnSpec& spec = kColumns[id];
    if (columns[id].empty()) continue;
    if (spec.rows == Rows::kMesh) {
      const auto& gate = columns[slot(spec.count)];
      if (std::all_of(gate.begin(), gate.end(), [](std::uint64_t v) { return v == 0; })) {
        continue;
      }
    }
    blocks.push_back(encode_column(static_cast<ColumnId>(id), spec.kind, columns[id]));
  }

  const std::vector<std::uint64_t>& aps = columns[slot(ColumnId::kApId)];
  std::uint64_t n_aps = 0;
  for (std::size_t i = 0; i < aps.size(); ++i) n_aps += i == 0 || aps[i] != aps[i - 1];

  // Sized exactly before anything is written, so the sealed buffer holds
  // no slack for the store to keep.
  std::size_t size = kMagic.size() + 12 + wire::varint_size(aps.size()) +
                     wire::varint_size(n_aps) + wire::varint_size(raw_wire_bytes) +
                     wire::varint_size(blocks.size()) + 4;
  for (const Block& b : blocks) size += framed_size(b);
  std::vector<std::uint8_t> out;
  out.reserve(size);
  for (const std::uint8_t m : kMagic) out.push_back(m);
  put_u32le(out, kFormatVersion);
  put_u32le(out, network_id);
  put_u32le(out, batch_seq);
  wire::put_varint(out, aps.size());
  wire::put_varint(out, n_aps);
  wire::put_varint(out, raw_wire_bytes);
  wire::put_varint(out, blocks.size());
  for (const Block& b : blocks) append_block(out, b);
  put_u32le(out, crc32({out.data() + kMagic.size(), out.size() - kMagic.size()}));
  return out;
}

// --- field lists ---------------------------------------------------------------
//
// Each row type lists its columns once, in a `fields(io, row)` overload.
// The writer runs it with Push (S = const T), appending the row to the
// columns; the reader with Pull (S = T), taking the row back off them.

using ckpt::Is;  // S is T, const (writing) or not (reading)

template <class T>
std::uint64_t to_u64(const T& v) {
  if constexpr (std::is_same_v<T, double>) {
    return f64_bits(v);
  } else if constexpr (std::is_same_v<T, MacAddress>) {
    return v.to_u64();
  } else {
    return static_cast<std::uint64_t>(v);
  }
}

template <class T>
T from_u64(std::uint64_t v) {
  if constexpr (std::is_same_v<T, double>) {
    return bits_f64(v);
  } else if constexpr (std::is_same_v<T, MacAddress>) {
    return MacAddress::from_u64(v);
  } else {
    return static_cast<T>(v);
  }
}

/// Appends each field to its column (MACs raw; seal() ranks them).
struct Push {
  Columns& columns;

  template <class T>
  void operator()(ColumnId id, const T& v) {
    columns[slot(id)].push_back(to_u64(v));
  }
  /// A child row list: its size into the count column, then each row.
  template <class Row>
  void rows(ColumnId count, const std::vector<Row>& rows) {
    (*this)(count, rows.size());
    for (const Row& r : rows) fields(*this, r);
  }
};

template <class Io, Is<wire::ClientUsage> S>
void fields(Io& io, S& u) {
  io(ColumnId::kUsageClient, u.client);
  io(ColumnId::kUsageApp, u.app_id);
  io(ColumnId::kUsageTx, u.tx_bytes);
  io(ColumnId::kUsageRx, u.rx_bytes);
}

template <class Io, Is<wire::ChannelUtilization> S>
void fields(Io& io, S& c) {
  io(ColumnId::kUtilBand, c.band);
  io(ColumnId::kUtilChannel, c.channel);
  io(ColumnId::kUtilCycle, c.cycle_us);
  io(ColumnId::kUtilBusy, c.busy_us);
  io(ColumnId::kUtilRxFrame, c.rx_frame_us);
  io(ColumnId::kUtilTx, c.tx_us);
}

template <class Io, Is<wire::NeighborBss> S>
void fields(Io& io, S& n) {
  io(ColumnId::kNbrBssid, n.bssid);
  io(ColumnId::kNbrBand, n.band);
  io(ColumnId::kNbrChannel, n.channel);
  io(ColumnId::kNbrRssi, n.rssi_dbm);
  std::uint64_t flags = (n.is_hotspot ? 1u : 0u) | (n.is_same_fleet ? 2u : 0u);
  io(ColumnId::kNbrFlags, flags);
  if constexpr (!std::is_const_v<S>) {
    n.is_hotspot = (flags & 1) != 0;
    n.is_same_fleet = (flags & 2) != 0;
  }
}

template <class Io, Is<wire::LinkProbeWindow> S>
void fields(Io& io, S& l) {
  io(ColumnId::kLinkFrom, l.from_ap);
  io(ColumnId::kLinkBand, l.band);
  io(ColumnId::kLinkChannel, l.channel);
  io(ColumnId::kLinkExpected, l.probes_expected);
  io(ColumnId::kLinkReceived, l.probes_received);
}

template <class Io, Is<wire::ClientSnapshot> S>
void fields(Io& io, S& c) {
  io(ColumnId::kClientMac, c.client);
  io(ColumnId::kClientCaps, c.capability_bits);
  io(ColumnId::kClientBand, c.band);
  io(ColumnId::kClientRssi, c.rssi_dbm);
  io(ColumnId::kClientOs, c.os_id);
}

template <class Io, Is<wire::ApReport> S>
void fields(Io& io, S& r) {
  io(ColumnId::kApId, r.ap_id);
  io(ColumnId::kTimestamp, r.timestamp_us);
  io(ColumnId::kFirmware, r.firmware);
  io.rows(ColumnId::kUsageCount, r.usage);
  io.rows(ColumnId::kUtilCount, r.utilization);
  io.rows(ColumnId::kNeighborCount, r.neighbors);
  io.rows(ColumnId::kLinkCount, r.links);
  io.rows(ColumnId::kClientCount, r.clients);
  io(ColumnId::kMeshHops, r.mesh_hops);
  io(ColumnId::kMeshRelayUs, r.mesh_relay_us);
}

}  // namespace

bool build_dict(std::span<const std::uint64_t> col, std::vector<std::uint64_t>& dict,
                std::vector<std::uint32_t>& ranks, std::size_t max_distinct) {
  dict.clear();
  ranks.resize(col.size());
  if (col.empty()) return true;
  const auto [lo_it, hi_it] = std::minmax_element(col.begin(), col.end());
  const std::uint64_t lo = *lo_it;
  const std::uint64_t span = *hi_it - lo;
  // Dense values (counts, bands, dictionary indices) rank through a direct
  // table over [lo, hi], with no hashing and no sort.
  if (span < 2 * col.size() + 64) {
    std::vector<std::uint32_t> rank_at(span + 1, 0);
    for (const std::uint64_t v : col) rank_at[v - lo] = 1;
    for (std::uint64_t k = 0; k <= span; ++k) {
      if (rank_at[k] == 0) continue;
      rank_at[k] = static_cast<std::uint32_t>(dict.size());
      dict.push_back(lo + k);
    }
    if (dict.size() > max_distinct) return false;
    for (std::size_t i = 0; i < col.size(); ++i) ranks[i] = rank_at[col[i] - lo];
    return true;
  }
  // Sparse values, pass 1: open addressing with linear probing at load
  // <= 1/2. The table starts small and grows fourfold, since most columns
  // repeat a few hundred values across thousands of rows. Each distinct
  // value gets an id in first-seen order; ranks[i] holds row i's id until
  // pass 2 turns ids into ranks.
  struct Slot {
    std::uint64_t key = 0;
    std::uint32_t id = 0;  // id + 1; 0 marks an empty slot
  };
  std::vector<Slot> table(
      std::bit_ceil(2 * std::min<std::size_t>({col.size(), max_distinct, 512})));
  std::size_t mask = table.size() - 1;
  const auto home = [&mask](std::uint64_t v) { return dict_hash(v) & mask; };
  for (std::size_t i = 0; i < col.size(); ++i) {
    const std::uint64_t v = col[i];
    // Runs of one value are common (per-AP counters, constant columns).
    if (i > 0 && v == col[i - 1]) {
      ranks[i] = ranks[i - 1];
      continue;
    }
    std::size_t slot = home(v);
    while (table[slot].id != 0 && table[slot].key != v) slot = (slot + 1) & mask;
    if (table[slot].id != 0) {
      ranks[i] = table[slot].id - 1;
      continue;
    }
    if (dict.size() == max_distinct) return false;
    ranks[i] = static_cast<std::uint32_t>(dict.size());
    dict.push_back(v);
    table[slot] = {v, static_cast<std::uint32_t>(dict.size())};
    if (2 * dict.size() > table.size()) {
      table.assign(4 * table.size(), Slot{});
      mask = table.size() - 1;
      for (std::size_t id = 0; id < dict.size(); ++id) {
        std::size_t s = home(dict[id]);
        while (table[s].id != 0) s = (s + 1) & mask;
        table[s] = {dict[id], static_cast<std::uint32_t>(id + 1)};
      }
    }
  }
  // Sparse values, pass 2: sort only the distinct values, then map each id
  // to its rank.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> order(dict.size());
  for (std::size_t id = 0; id < dict.size(); ++id) {
    order[id] = {dict[id], static_cast<std::uint32_t>(id)};
  }
  std::sort(order.begin(), order.end());
  std::vector<std::uint32_t> rank_of(dict.size());
  for (std::size_t r = 0; r < order.size(); ++r) {
    dict[r] = order[r].first;
    rank_of[order[r].second] = static_cast<std::uint32_t>(r);
  }
  for (std::uint32_t& r : ranks) r = rank_of[r];
  return true;
}

void SegmentWriter::add(const wire::ApReport& report) {
  // Raw-wire baseline for the compression ratio: what this report costs in
  // the row-oriented tunnel encoding. Thread-local scratch, same pattern as
  // backend::frame_report.
  thread_local wire::Encoder encoder;
  wire::encode_report_into(report, encoder);
  raw_wire_bytes_ += encoder.size();

  if (distinct_aps_.empty() || distinct_aps_.back() != report.ap_id) {
    distinct_aps_.push_back(report.ap_id);
  }
  Push io{columns_};
  fields(io, report);
}

std::vector<std::uint8_t> SegmentWriter::seal() {
  return seal_columns(network_id_, batch_seq_, raw_wire_bytes_, columns_);
}

// --- reader ----------------------------------------------------------------

namespace {

/// Bounds-checked walk state over a segment's bytes.
struct Walk {
  std::span<const std::uint8_t> bytes;
  std::size_t pos = 0;

  [[nodiscard]] std::size_t remaining() const { return bytes.size() - pos; }
  [[nodiscard]] bool varint(std::uint64_t& out) {
    const std::uint8_t* next =
        wire::parse_varint(bytes.data() + pos, bytes.data() + bytes.size(), out);
    if (next == nullptr) return false;
    pos = static_cast<std::size_t>(next - bytes.data());
    return true;
  }
};

Error walk_header(Walk& w, SegmentHeader& hdr) {
  if (w.bytes.size() < kMagic.size()) return {Status::kTruncated, "short segment"};
  if (!std::equal(kMagic.begin(), kMagic.end(), w.bytes.begin())) {
    return {Status::kBadMagic, "not a tsdb segment"};
  }
  if (w.bytes.size() < kHeaderFixedBytes + kTrailerBytes) {
    return {Status::kTruncated, "segment header truncated"};
  }
  const std::uint32_t version = read_u32le(w.bytes.data() + kMagic.size());
  if (version != kFormatVersion) {
    return {Status::kBadVersion,
            "segment version " + std::to_string(version) + ", expected " +
                std::to_string(kFormatVersion)};
  }
  hdr.network_id = read_u32le(w.bytes.data() + kMagic.size() + 4);
  hdr.batch_seq = read_u32le(w.bytes.data() + kMagic.size() + 8);
  w.pos = kHeaderFixedBytes;
  if (!w.varint(hdr.n_reports) || !w.varint(hdr.n_aps) ||
      !w.varint(hdr.raw_wire_bytes) || !w.varint(hdr.n_blocks)) {
    return {Status::kTruncated, "segment header varints truncated"};
  }
  // Plausibility gates before any loop trusts these counts: a report or a
  // block costs bytes, so a count beyond the bytes present is a lie.
  if (hdr.n_reports > w.bytes.size() || hdr.n_aps > hdr.n_reports ||
      hdr.n_blocks > w.bytes.size()) {
    return {Status::kBadCount, "segment header counts exceed segment size"};
  }
  // raw_wire_bytes is load-bearing downstream (row counts and per-report
  // child counts are bounded against it), so it must itself be plausible.
  // Division form: bytes.size() * kMaxRawExpansion could wrap.
  if (hdr.raw_wire_bytes / kMaxRawExpansion > w.bytes.size()) {
    return {Status::kBadCount, "segment header raw_wire_bytes implausible"};
  }
  return {};
}

struct RawBlock {
  ColumnId id{};
  Encoding encoding{};
  std::uint64_t rows = 0;
  std::span<const std::uint8_t> payload;
};

/// Reads one block frame and checks its payload CRC. The min/max summary is
/// left to validate(), which compares every byte against the writer's.
Error walk_block(Walk& w, RawBlock& b) {
  if (w.remaining() < 2 + kTrailerBytes) return {Status::kTruncated, "block header truncated"};
  b.id = static_cast<ColumnId>(w.bytes[w.pos]);
  b.encoding = static_cast<Encoding>(w.bytes[w.pos + 1]);
  w.pos += 2;
  std::uint64_t summary = 0, len = 0;
  if (!w.varint(b.rows) || !w.varint(summary) || !w.varint(summary) || !w.varint(len)) {
    return {Status::kTruncated, "block header varints truncated"};
  }
  // Overflow-safe: a crafted len near 2^64 would wrap `len + 4 + trailer`
  // and sail past a `remaining() < sum` check into an out-of-bounds subspan.
  if (len > w.remaining() || w.remaining() - len < 4 + kTrailerBytes) {
    return {Status::kTruncated, "block payload truncated"};
  }
  b.payload = w.bytes.subspan(w.pos, len);
  w.pos += len;
  const std::uint32_t stored_crc = read_u32le(w.bytes.data() + w.pos);
  w.pos += 4;
  if (stored_crc != crc32(b.payload)) {
    return {Status::kBadCrc, "block payload failed its CRC"};
  }
  return {};
}

struct Parsed {
  SegmentHeader hdr;
  // Every block's rows by column id; a column the segment lacks is empty.
  Columns cols;
  // The sum of each count column's rows, once a child block has asked for
  // it; reset whenever the count column is decoded again.
  std::array<std::optional<std::uint64_t>, kColumnSlots> sums{};
};

/// Consumes the rest of `w` as a stream of fixed-width packed indices into
/// `dict` and appends the entries they name to `out`. Rejects a stream too
/// short for its rows and out-of-range indices (the width can address
/// values past the dictionary end).
Error unpack_indices(Walk& w, std::uint64_t rows, const std::vector<std::uint64_t>& dict,
                     std::vector<std::uint64_t>& out) {
  const unsigned width = index_bits(dict.size());
  // Overflow-safe: rows*width near 2^64 would wrap `need` down to a value
  // an attacker can match with a tiny (even empty) stream.
  if (width > 0 &&
      rows > (std::numeric_limits<std::uint64_t>::max() - 7) / width) {
    return {Status::kBadCount, "packed index row count overflows"};
  }
  const std::uint64_t need = width == 0 ? 0 : (rows * width + 7) / 8;
  if (w.remaining() < need) return {Status::kBadCount, "packed index stream too short"};
  out.reserve(rows);
  std::uint64_t acc = 0;
  unsigned nbits = 0;
  const std::uint64_t mask = width == 0 ? 0 : (~std::uint64_t{0} >> (64 - width));
  for (std::uint64_t i = 0; i < rows; ++i) {
    while (nbits < width) {
      acc |= static_cast<std::uint64_t>(w.bytes[w.pos++]) << nbits;
      nbits += 8;
    }
    const std::uint64_t idx = acc & mask;
    if (idx >= dict.size()) return {Status::kMalformed, "dict index out of range"};
    acc >>= width;
    nbits -= width;
    out.push_back(dict[idx]);
  }
  return {};
}

/// Sums a count column into `out`.
Error checked_sum(const std::vector<std::uint64_t>& counts, std::uint64_t& out) {
  out = 0;
  for (const std::uint64_t v : counts) {
    // Hard per-count cap, independent of any header field: no report
    // carries anywhere near this many child rows, and rejecting early
    // keeps the sum from wrapping to a value matching absent columns.
    if (v > kMaxChildRowsPerReport) {
      return {Status::kBadCount, "implausible per-report child count"};
    }
    if (out > std::numeric_limits<std::uint64_t>::max() - v) {
      return {Status::kBadCount, "child row total overflows"};
    }
    out += v;
  }
  return {};
}

/// Refuses a block claiming more rows than its column may hold, from what
/// the parse already has: the header's report count for a per-report or
/// mesh column, the payload size for the MAC dictionary (each entry costs a
/// byte), and for a child column the rows its count column's reports claim
/// (the writer seals columns in id order, so the count column comes
/// first), no more than the header's raw_wire_bytes (a child row costs at
/// least one byte of the row encoding). A zero-width dictionary block
/// decodes every row from no payload bytes, so without this bound a few
/// crafted bytes could claim a large allocation, and each further block
/// could claim it again.
Error check_row_bound(const RawBlock& b, Parsed& p) {
  const ColumnSpec& spec = kColumns[slot(b.id)];
  if (spec.rows == Rows::kDict) {
    if (b.rows > b.payload.size()) return {Status::kBadCount, "dictionary rows exceed its payload"};
  } else if (spec.rows == Rows::kChild) {
    const std::size_t count = slot(spec.count);
    if (p.cols[count].empty()) return {Status::kBadCount, "child block before its count column"};
    if (!p.sums[count]) {
      std::uint64_t sum = 0;
      if (auto err = checked_sum(p.cols[count], sum)) return err;
      p.sums[count] = sum;
    }
    if (b.rows > std::min(*p.sums[count], p.hdr.raw_wire_bytes)) {
      return {Status::kBadCount, "child block rows exceed its count column's"};
    }
  } else if (b.rows > p.hdr.n_reports) {
    return {Status::kBadCount, "block rows exceed the header's reports"};
  }
  return {};
}

Error decode_block(const RawBlock& b, Parsed& out) {
  const std::size_t id = slot(b.id);
  if (id >= kColumnSlots || kColumns[id].kind == Kind::kNone) {
    return {Status::kMalformed, "undefined column id"};
  }
  // Before any reserve().
  if (auto err = check_row_bound(b, out)) return err;
  std::vector<std::uint64_t>& col = out.cols[id];
  col.clear();  // a repeated column keeps its last block; validate() refuses it
  out.sums[id].reset();
  switch (b.encoding) {
    case Encoding::kVarint:
    case Encoding::kDeltaZigzag: {
      if (b.rows > b.payload.size()) {
        return {Status::kBadCount, "varint column rows exceed payload"};
      }
      col.reserve(b.rows);
      Walk w{b.payload};
      // Delta sums wrap mod 2^64, like the writer's differences, so crafted
      // deltas cannot overflow.
      std::uint64_t sum = 0;
      for (std::uint64_t i = 0; i < b.rows; ++i) {
        std::uint64_t v = 0;
        if (!w.varint(v)) return {Status::kMalformed, "varint column truncated row"};
        if (b.encoding == Encoding::kDeltaZigzag) {
          v = sum += static_cast<std::uint64_t>(wire::zigzag_decode(v));
        }
        col.push_back(v);
      }
      break;
    }
    case Encoding::kDictVarint:
    case Encoding::kDictF64: {
      Walk w{b.payload};
      std::uint64_t n_dict = 0;
      if (!w.varint(n_dict)) return {Status::kMalformed, "dict truncated"};
      if (n_dict > w.remaining()) return {Status::kBadCount, "dict size exceeds payload"};
      std::vector<std::uint64_t> dict;
      dict.reserve(n_dict);
      std::uint64_t prev = 0;
      for (std::uint64_t i = 0; i < n_dict; ++i) {
        std::uint64_t z = 0;
        if (!w.varint(z)) return {Status::kMalformed, "dict truncated entry"};
        prev += static_cast<std::uint64_t>(wire::zigzag_decode(z));
        dict.push_back(prev);
      }
      if (auto err = unpack_indices(w, b.rows, dict, col)) return err;
      break;
    }
    case Encoding::kFixed64: {
      // Division form: rows * 8 wraps for crafted rows >= 2^61, letting an
      // empty payload pass an exact product comparison.
      if (b.payload.size() % 8 != 0 || b.rows != b.payload.size() / 8) {
        return {Status::kBadCount, "fixed64 column size mismatch"};
      }
      col.reserve(b.rows);
      for (std::uint64_t i = 0; i < b.rows; ++i) {
        std::uint64_t bits = 0;
        for (int j = 7; j >= 0; --j) bits = (bits << 8) | b.payload[i * 8 + j];
        col.push_back(bits);
      }
      break;
    }
    default:
      return {Status::kMalformed, "unknown column encoding"};
  }
  return {};
}

/// What Pull needs to stay in bounds: every column holds the rows its
/// table entry says (a mesh column may be absent), and every MAC index
/// resolves in the dictionary.
Error check_rows(const Parsed& p) {
  const std::size_t dict_size = p.cols[slot(ColumnId::kMacDict)].size();
  for (std::size_t id = 1; id < kColumnSlots; ++id) {  // id 0 names no column
    const ColumnSpec& spec = kColumns[id];
    const std::vector<std::uint64_t>& col = p.cols[id];
    std::uint64_t rows = p.hdr.n_reports;
    if (spec.rows == Rows::kDict || (spec.rows == Rows::kMesh && col.empty())) continue;
    if (spec.rows == Rows::kChild) {
      if (auto err = checked_sum(p.cols[slot(spec.count)], rows)) return err;
    }
    if (col.size() != rows) {
      return {Status::kBadCount, "column " + std::to_string(id) + ": expected " +
                                     std::to_string(rows) + " rows, found " +
                                     std::to_string(col.size())};
    }
    if (spec.mac && std::any_of(col.begin(), col.end(),
                                [dict_size](std::uint64_t i) { return i >= dict_size; })) {
      return {Status::kMalformed, "MAC dict index out of range"};
    }
  }
  return {};
}

/// Takes each field back off its column, one cursor per column; check_rows
/// vouches that every column holds the rows the reports claim.
class Pull {
 public:
  explicit Pull(const Parsed& p) : dict_(p.cols[slot(ColumnId::kMacDict)]) {
    for (std::size_t id = 0; id < kColumnSlots; ++id) {
      next_[id] = p.cols[id].empty() ? nullptr : p.cols[id].data();
    }
  }

  template <class T>
  void operator()(ColumnId id, T& v) {
    const std::uint64_t*& at = next_[slot(id)];
    if (at == nullptr) return;  // an absent mesh column: the default
    std::uint64_t u = *at++;
    if (kColumns[slot(id)].mac) u = dict_[u];
    v = from_u64<T>(u);
  }
  template <class Row>
  void rows(ColumnId count, std::vector<Row>& rows) {
    std::uint64_t n = 0;
    (*this)(count, n);
    rows.resize(n);
    for (Row& r : rows) fields(*this, r);
  }

 private:
  std::array<const std::uint64_t*, kColumnSlots> next_{};
  const std::vector<std::uint64_t>& dict_;
};

/// Last line of the no-crash contract: row counts are bounded against the
/// segment's own claims above, but a large crafted segment can still make
/// bounded reserves exceed what the host will grant. That must surface as
/// a typed error, not an uncaught bad_alloc/length_error.
template <typename Fn>
Error guard_alloc(Fn&& fn) {
  try {
    return fn();
  } catch (const std::bad_alloc&) {
    return {Status::kBadCount, "segment decode exhausted memory"};
  } catch (const std::length_error&) {
    return {Status::kBadCount, "segment decode exhausted memory"};
  }
}

/// The memory-safe parse: frames, CRCs and the row counts Pull relies on.
/// Whether the writer made these bytes is validate()'s question.
Error parse(std::span<const std::uint8_t> bytes, Parsed& out) {
  Walk w{bytes};
  if (auto err = walk_header(w, out.hdr)) return err;
  for (std::uint64_t i = 0; i < out.hdr.n_blocks; ++i) {
    RawBlock b;
    if (auto err = walk_block(w, b)) return err;
    if (auto err = decode_block(b, out)) return err;
  }
  if (w.remaining() < kTrailerBytes) return {Status::kTruncated, "missing segment CRC"};
  const std::size_t guarded = bytes.size() - kTrailerBytes;
  if (read_u32le(bytes.data() + guarded) !=
      crc32({bytes.data() + kMagic.size(), guarded - kMagic.size()})) {
    return {Status::kBadCrc, "segment trailer failed its CRC"};
  }
  return check_rows(out);
}

/// validate()'s verdict on a parsed segment: ok only if the AP column
/// ascends and the writer seals exactly `bytes` for the decoded columns.
Error reseal(std::span<const std::uint8_t> bytes, const Parsed& p) {
  // The writer seals whatever order it is fed, so the re-seal cannot see an
  // AP column out of canonical order.
  const std::vector<std::uint64_t>& aps = p.cols[slot(ColumnId::kApId)];
  if (!std::is_sorted(aps.begin(), aps.end())) {
    return {Status::kNotCanonical, "AP column descends"};
  }
  // The writer's columns, rebuilt through the field lists: each value takes
  // its field's type, and each MAC index its dictionary value, as
  // SegmentWriter::add would see them. One report is reused throughout.
  Columns columns;
  Pull pull(p);
  Push push{columns};
  wire::ApReport report;
  for (std::uint64_t r = 0; r < p.hdr.n_reports; ++r) {
    fields(pull, report);
    fields(push, std::as_const(report));
  }
  const std::vector<std::uint8_t> resealed =
      seal_columns(p.hdr.network_id, p.hdr.batch_seq, p.hdr.raw_wire_bytes, columns);
  if (!std::equal(bytes.begin(), bytes.end(), resealed.begin(), resealed.end())) {
    return {Status::kNotCanonical, "the writer does not seal these bytes"};
  }
  return {};
}

}  // namespace

Error SegmentReader::validate(std::span<const std::uint8_t> bytes, SegmentHeader* header,
                              std::vector<std::uint32_t>* ap_ids) {
  Parsed p;
  if (auto err = guard_alloc([&] { return parse(bytes, p); })) return err;
  if (auto err = guard_alloc([&] { return reseal(bytes, p); })) return err;
  if (header != nullptr) *header = p.hdr;
  if (ap_ids != nullptr) {
    const std::vector<std::uint64_t>& aps = p.cols[slot(ColumnId::kApId)];
    ap_ids->assign(aps.begin(), aps.end());
    ap_ids->erase(std::unique(ap_ids->begin(), ap_ids->end()), ap_ids->end());
  }
  return {};
}

Error SegmentReader::for_each(std::span<const std::uint8_t> bytes,
                              const std::function<void(wire::ApReport&&)>& fn) {
  Parsed p;
  if (auto err = guard_alloc([&] { return parse(bytes, p); })) return err;
  Pull io(p);
  for (std::uint64_t r = 0; r < p.hdr.n_reports; ++r) {
    wire::ApReport report;
    fields(io, report);
    fn(std::move(report));
  }
  return {};
}

}  // namespace wlm::tsdb

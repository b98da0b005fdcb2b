#include "tsdb/segment.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>
#include <map>
#include <new>
#include <stdexcept>

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
  if (col.empty()) return b;
  std::size_t plain_size = 0;
  // Summaries use the reader's view of the value (i64 cast) so the
  // round-trip check compares like with like.
  b.min = b.max = static_cast<std::int64_t>(col.front());
  for (const std::uint64_t v : col) {
    plain_size += wire::varint_size(v);
    b.min = std::min(b.min, static_cast<std::int64_t>(v));
    b.max = std::max(b.max, static_cast<std::int64_t>(v));
  }
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

Block delta_block(ColumnId id, const std::vector<std::int64_t>& col) {
  Block b{id, Encoding::kDeltaZigzag, col.size()};
  std::int64_t prev = 0;
  for (const std::int64_t v : col) {
    wire::put_varint(b.payload, wire::zigzag_encode(v - prev));
    prev = v;
  }
  if (!col.empty()) {
    b.min = *std::min_element(col.begin(), col.end());
    b.max = *std::max_element(col.begin(), col.end());
  }
  return b;
}

Block f64_block(ColumnId id, const std::vector<double>& col) {
  // Dictionary when the value set is small (RSSI streams repeat heavily);
  // raw fixed64 otherwise. The choice depends only on the data, so sealed
  // bytes stay identical across --jobs.
  std::vector<std::uint64_t> bits;
  bits.reserve(col.size());
  for (const double v : col) bits.push_back(f64_bits(v));
  std::vector<std::uint64_t> dict;
  std::vector<std::uint32_t> ranks;
  if (!col.empty() && build_dict(bits, dict, ranks, kMaxF64Dict)) {
    // Sorted bit patterns of same-sign doubles share their high bits, so
    // delta coding the sorted dictionary beats raw fixed64 entries.
    Block b{id, Encoding::kDictF64, col.size()};
    put_dict(b.payload, dict);
    pack_indices(b.payload, ranks, index_bits(dict.size()));
    return b;
  }
  Block b{id, Encoding::kFixed64, col.size()};
  for (const std::uint64_t v : bits) {
    for (int i = 0; i < 8; ++i) b.payload.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  return b;
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
  ap_ids_.push_back(report.ap_id);
  timestamps_.push_back(report.timestamp_us);
  firmware_.push_back(report.firmware);
  n_usage_.push_back(report.usage.size());
  n_util_.push_back(report.utilization.size());
  n_nbr_.push_back(report.neighbors.size());
  n_link_.push_back(report.links.size());
  n_client_.push_back(report.clients.size());
  mesh_hops_.push_back(report.mesh_hops);
  mesh_relay_us_.push_back(report.mesh_relay_us);
  if (report.mesh_hops != 0) any_mesh_ = true;
  for (const auto& u : report.usage) {
    usage_client_.push_back(u.client.to_u64());
    usage_app_.push_back(u.app_id);
    usage_tx_.push_back(u.tx_bytes);
    usage_rx_.push_back(u.rx_bytes);
  }
  for (const auto& c : report.utilization) {
    util_band_.push_back(c.band);
    util_channel_.push_back(c.channel);
    util_cycle_.push_back(c.cycle_us);
    util_busy_.push_back(c.busy_us);
    util_rxf_.push_back(c.rx_frame_us);
    util_tx_.push_back(c.tx_us);
  }
  for (const auto& n : report.neighbors) {
    nbr_bssid_.push_back(n.bssid.to_u64());
    nbr_band_.push_back(n.band);
    nbr_channel_.push_back(n.channel);
    nbr_rssi_.push_back(n.rssi_dbm);
    nbr_flags_.push_back(static_cast<std::uint64_t>(n.is_hotspot ? 1 : 0) |
                         static_cast<std::uint64_t>(n.is_same_fleet ? 2 : 0));
  }
  for (const auto& l : report.links) {
    link_from_.push_back(l.from_ap);
    link_band_.push_back(l.band);
    link_channel_.push_back(l.channel);
    link_expected_.push_back(l.probes_expected);
    link_received_.push_back(l.probes_received);
  }
  for (const auto& c : report.clients) {
    client_mac_.push_back(c.client.to_u64());
    client_caps_.push_back(c.capability_bits);
    client_band_.push_back(c.band);
    client_rssi_.push_back(c.rssi_dbm);
    client_os_.push_back(c.os_id);
  }
}

std::vector<std::uint8_t> SegmentWriter::seal() {
  // Segment-wide MAC dictionary: client and BSSID MACs are the heaviest
  // repeated values on this wire (7-8 varint bytes each, repeated per row);
  // sorted + delta coded they compress to a few bytes per distinct device,
  // and every reference becomes a small index.
  std::vector<std::int64_t> dict_signed;
  {
    // Scoped, so the all-MACs copy and its ranks are freed before the
    // blocks are built.
    std::vector<std::uint64_t> macs;
    macs.reserve(usage_client_.size() + nbr_bssid_.size() + client_mac_.size());
    macs.insert(macs.end(), usage_client_.begin(), usage_client_.end());
    macs.insert(macs.end(), nbr_bssid_.begin(), nbr_bssid_.end());
    macs.insert(macs.end(), client_mac_.begin(), client_mac_.end());
    std::vector<std::uint64_t> dict;
    std::vector<std::uint32_t> ranks;
    build_dict(macs, dict, ranks);
    auto rank = ranks.begin();
    for (auto* col : {&usage_client_, &nbr_bssid_, &client_mac_}) {
      for (auto& v : *col) v = *rank++;
    }
    dict_signed.assign(dict.begin(), dict.end());
  }

  std::vector<std::int64_t> ap_signed(ap_ids_.begin(), ap_ids_.end());
  std::vector<Block> blocks;
  const auto emit = [&blocks](Block b) {
    if (b.rows > 0) blocks.push_back(std::move(b));
  };
  emit(delta_block(ColumnId::kApId, ap_signed));
  emit(delta_block(ColumnId::kTimestamp, timestamps_));
  emit(best_u64_block(ColumnId::kFirmware, firmware_));
  emit(best_u64_block(ColumnId::kUsageCount, n_usage_));
  emit(best_u64_block(ColumnId::kUtilCount, n_util_));
  emit(best_u64_block(ColumnId::kNeighborCount, n_nbr_));
  emit(best_u64_block(ColumnId::kLinkCount, n_link_));
  emit(best_u64_block(ColumnId::kClientCount, n_client_));
  emit(delta_block(ColumnId::kMacDict, dict_signed));
  emit(best_u64_block(ColumnId::kUsageClient, usage_client_));
  emit(best_u64_block(ColumnId::kUsageApp, usage_app_));
  emit(best_u64_block(ColumnId::kUsageTx, usage_tx_));
  emit(best_u64_block(ColumnId::kUsageRx, usage_rx_));
  emit(best_u64_block(ColumnId::kUtilBand, util_band_));
  emit(delta_block(ColumnId::kUtilChannel, util_channel_));
  emit(best_u64_block(ColumnId::kUtilCycle, util_cycle_));
  emit(best_u64_block(ColumnId::kUtilBusy, util_busy_));
  emit(best_u64_block(ColumnId::kUtilRxFrame, util_rxf_));
  emit(best_u64_block(ColumnId::kUtilTx, util_tx_));
  emit(best_u64_block(ColumnId::kNbrBssid, nbr_bssid_));
  emit(best_u64_block(ColumnId::kNbrBand, nbr_band_));
  emit(delta_block(ColumnId::kNbrChannel, nbr_channel_));
  emit(f64_block(ColumnId::kNbrRssi, nbr_rssi_));
  emit(best_u64_block(ColumnId::kNbrFlags, nbr_flags_));
  emit(delta_block(ColumnId::kLinkFrom, link_from_));
  emit(best_u64_block(ColumnId::kLinkBand, link_band_));
  emit(delta_block(ColumnId::kLinkChannel, link_channel_));
  emit(best_u64_block(ColumnId::kLinkExpected, link_expected_));
  emit(best_u64_block(ColumnId::kLinkReceived, link_received_));
  emit(best_u64_block(ColumnId::kClientMac, client_mac_));
  emit(best_u64_block(ColumnId::kClientCaps, client_caps_));
  emit(best_u64_block(ColumnId::kClientBand, client_band_));
  emit(f64_block(ColumnId::kClientRssi, client_rssi_));
  emit(best_u64_block(ColumnId::kClientOs, client_os_));
  if (any_mesh_) {
    emit(best_u64_block(ColumnId::kMeshHops, mesh_hops_));
    emit(best_u64_block(ColumnId::kMeshRelayUs, mesh_relay_us_));
  }

  std::vector<std::uint8_t> out;
  out.reserve(64);
  for (const std::uint8_t m : kMagic) out.push_back(m);
  put_u32le(out, kFormatVersion);
  put_u32le(out, network_id_);
  put_u32le(out, batch_seq_);
  wire::put_varint(out, ap_ids_.size());
  wire::put_varint(out, distinct_aps_.size());
  wire::put_varint(out, raw_wire_bytes_);
  wire::put_varint(out, blocks.size());
  for (const Block& b : blocks) append_block(out, b);
  put_u32le(out, crc32({out.data() + kMagic.size(), out.size() - kMagic.size()}));
  return out;
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
  ColumnId id;
  Encoding encoding;
  std::uint64_t rows = 0;
  std::int64_t min = 0, max = 0;
  std::span<const std::uint8_t> payload;
};

/// Reads one block frame and checks its payload CRC.
Error walk_block(Walk& w, RawBlock& b) {
  if (w.remaining() < 2 + kTrailerBytes) return {Status::kTruncated, "block header truncated"};
  b.id = static_cast<ColumnId>(w.bytes[w.pos]);
  b.encoding = static_cast<Encoding>(w.bytes[w.pos + 1]);
  w.pos += 2;
  std::uint64_t zmin = 0, zmax = 0, len = 0;
  if (!w.varint(b.rows) || !w.varint(zmin) || !w.varint(zmax) || !w.varint(len)) {
    return {Status::kTruncated, "block header varints truncated"};
  }
  b.min = wire::zigzag_decode(zmin);
  b.max = wire::zigzag_decode(zmax);
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
  std::map<ColumnId, std::vector<std::uint64_t>> ints;
  std::map<ColumnId, std::vector<double>> reals;

  [[nodiscard]] const std::vector<std::uint64_t>& col(ColumnId id) const {
    static const std::vector<std::uint64_t> empty;
    const auto it = ints.find(id);
    return it == ints.end() ? empty : it->second;
  }
  [[nodiscard]] const std::vector<double>& fcol(ColumnId id) const {
    static const std::vector<double> empty;
    const auto it = reals.find(id);
    return it == reals.end() ? empty : it->second;
  }
};

/// Consumes the rest of `w` as a fixed-width packed index stream. Rejects
/// wrong stream length, out-of-range indices (the width can address values
/// past the dictionary end), and nonzero padding bits.
Error unpack_indices(Walk& w, std::uint64_t rows, std::size_t dict_size,
                     std::vector<std::uint64_t>& out) {
  const unsigned width = index_bits(dict_size);
  // Overflow-safe: rows*width near 2^64 would wrap `need` down to a value
  // an attacker can match with a tiny (even empty) stream.
  if (width > 0 &&
      rows > (std::numeric_limits<std::uint64_t>::max() - 7) / width) {
    return {Status::kBadCount, "packed index row count overflows"};
  }
  const std::uint64_t need = width == 0 ? 0 : (rows * width + 7) / 8;
  if (w.remaining() != need) {
    return {Status::kBadCount, "packed index stream length mismatch"};
  }
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
    if (idx >= dict_size) return {Status::kMalformed, "dict index out of range"};
    acc >>= width;
    nbits -= width;
    out.push_back(idx);
  }
  if (w.remaining() != 0) return {Status::kBadCount, "packed index trailing bytes"};
  if (acc != 0) return {Status::kMalformed, "nonzero padding in packed indices"};
  return {};
}

Error decode_block(const RawBlock& b, Parsed& out) {
  if (out.ints.count(b.id) != 0 || out.reals.count(b.id) != 0) {
    return {Status::kMalformed, "duplicate column"};
  }
  // Every row costs at least one byte in the row-oriented wire encoding the
  // header's raw_wire_bytes records (itself bounded in walk_header), so a
  // larger row count is a lie. Gating here — before any reserve() — also
  // covers the zero-width dict case, where a constant column's empty index
  // stream puts no payload-derived bound on rows.
  if (b.rows > out.hdr.raw_wire_bytes) {
    return {Status::kBadCount, "block row count exceeds raw wire size"};
  }
  std::int64_t seen_min = 0, seen_max = 0;
  bool any = false;
  const auto track = [&](std::int64_t v) {
    if (!any) {
      seen_min = seen_max = v;
      any = true;
    } else {
      seen_min = std::min(seen_min, v);
      seen_max = std::max(seen_max, v);
    }
  };
  switch (b.encoding) {
    case Encoding::kVarint: {
      if (b.rows > b.payload.size()) {
        return {Status::kBadCount, "varint column rows exceed payload"};
      }
      std::vector<std::uint64_t> col;
      col.reserve(b.rows);
      Walk w{b.payload};
      for (std::uint64_t i = 0; i < b.rows; ++i) {
        std::uint64_t v = 0;
        if (!w.varint(v)) return {Status::kMalformed, "varint column truncated row"};
        track(static_cast<std::int64_t>(v));
        col.push_back(v);
      }
      if (w.remaining() != 0) return {Status::kBadCount, "varint column trailing bytes"};
      out.ints.emplace(b.id, std::move(col));
      break;
    }
    case Encoding::kDeltaZigzag: {
      if (b.rows > b.payload.size()) {
        return {Status::kBadCount, "delta column rows exceed payload"};
      }
      std::vector<std::uint64_t> col;
      col.reserve(b.rows);
      Walk w{b.payload};
      std::int64_t prev = 0;
      for (std::uint64_t i = 0; i < b.rows; ++i) {
        std::uint64_t z = 0;
        if (!w.varint(z)) return {Status::kMalformed, "delta column truncated row"};
        prev += wire::zigzag_decode(z);
        track(prev);
        col.push_back(static_cast<std::uint64_t>(prev));
      }
      if (w.remaining() != 0) return {Status::kBadCount, "delta column trailing bytes"};
      out.ints.emplace(b.id, std::move(col));
      break;
    }
    case Encoding::kDictVarint: {
      Walk w{b.payload};
      std::uint64_t n_dict = 0;
      if (!w.varint(n_dict)) return {Status::kMalformed, "u64 dict truncated"};
      if (n_dict > w.remaining()) {
        return {Status::kBadCount, "u64 dict size exceeds payload"};
      }
      std::vector<std::uint64_t> dict;
      dict.reserve(n_dict);
      std::uint64_t prev = 0;
      for (std::uint64_t i = 0; i < n_dict; ++i) {
        std::uint64_t z = 0;
        if (!w.varint(z)) return {Status::kMalformed, "u64 dict truncated entry"};
        const std::uint64_t v = prev + static_cast<std::uint64_t>(wire::zigzag_decode(z));
        // The writer emits a strictly ascending dictionary; anything else is
        // tampering (and would break the index binary-search contract).
        if (i > 0 && v <= prev) return {Status::kMalformed, "u64 dict not ascending"};
        dict.push_back(v);
        prev = v;
      }
      std::vector<std::uint64_t> indices;
      if (auto err = unpack_indices(w, b.rows, dict.size(), indices)) return err;
      std::vector<std::uint64_t> col;
      col.reserve(b.rows);
      for (const std::uint64_t idx : indices) {
        track(static_cast<std::int64_t>(dict[idx]));
        col.push_back(dict[idx]);
      }
      out.ints.emplace(b.id, std::move(col));
      break;
    }
    case Encoding::kFixed64: {
      // Division form: rows * 8 wraps for crafted rows >= 2^61, letting an
      // empty payload pass an exact product comparison.
      if (b.payload.size() % 8 != 0 || b.rows != b.payload.size() / 8) {
        return {Status::kBadCount, "fixed64 column size mismatch"};
      }
      std::vector<double> col;
      col.reserve(b.rows);
      for (std::uint64_t i = 0; i < b.rows; ++i) {
        std::uint64_t bits = 0;
        for (int j = 7; j >= 0; --j) bits = (bits << 8) | b.payload[i * 8 + j];
        col.push_back(bits_f64(bits));
      }
      any = true;  // no integer summary for real columns
      seen_min = b.min;
      seen_max = b.max;
      out.reals.emplace(b.id, std::move(col));
      break;
    }
    case Encoding::kDictF64: {
      Walk w{b.payload};
      std::uint64_t n_dict = 0;
      if (!w.varint(n_dict)) return {Status::kMalformed, "f64 dict truncated"};
      if (n_dict > kMaxF64Dict || n_dict > w.remaining()) {
        return {Status::kBadCount, "f64 dict size exceeds payload"};
      }
      std::vector<double> dict;
      dict.reserve(n_dict);
      std::uint64_t prev = 0;
      for (std::uint64_t i = 0; i < n_dict; ++i) {
        std::uint64_t z = 0;
        if (!w.varint(z)) return {Status::kMalformed, "f64 dict truncated entry"};
        const std::uint64_t v = prev + static_cast<std::uint64_t>(wire::zigzag_decode(z));
        if (i > 0 && v <= prev) return {Status::kMalformed, "f64 dict not ascending"};
        dict.push_back(bits_f64(v));
        prev = v;
      }
      std::vector<std::uint64_t> indices;
      if (auto err = unpack_indices(w, b.rows, dict.size(), indices)) return err;
      std::vector<double> col;
      col.reserve(b.rows);
      for (const std::uint64_t idx : indices) col.push_back(dict[idx]);
      any = true;
      seen_min = b.min;
      seen_max = b.max;
      out.reals.emplace(b.id, std::move(col));
      break;
    }
    default:
      return {Status::kMalformed, "unknown column encoding"};
  }
  // The min/max summary is part of the format, so a summary that disagrees
  // with the rows is tampering, not a tolerable cosmetic defect.
  if (out.ints.count(b.id) != 0 && any && (seen_min != b.min || seen_max != b.max)) {
    return {Status::kMalformed, "block summary disagrees with rows"};
  }
  return {};
}

Error cross_check(const Parsed& p) {
  const SegmentHeader& hdr = p.hdr;
  const auto require_rows = [&](ColumnId id, std::uint64_t rows, const char* what) -> Error {
    const std::size_t have =
        p.ints.count(id) != 0 ? p.ints.at(id).size() : p.fcol(id).size();
    if (have != rows) {
      return {Status::kBadCount, std::string(what) + ": expected " +
                                     std::to_string(rows) + " rows, found " +
                                     std::to_string(have)};
    }
    return {};
  };
  for (const auto& [id, what] :
       {std::pair{ColumnId::kApId, "ap column"},
        std::pair{ColumnId::kTimestamp, "timestamp column"},
        std::pair{ColumnId::kFirmware, "firmware column"},
        std::pair{ColumnId::kUsageCount, "usage count column"},
        std::pair{ColumnId::kUtilCount, "util count column"},
        std::pair{ColumnId::kNeighborCount, "neighbor count column"},
        std::pair{ColumnId::kLinkCount, "link count column"},
        std::pair{ColumnId::kClientCount, "client count column"}}) {
    if (auto err = require_rows(id, hdr.n_reports, what)) return err;
  }
  const auto checked_sum = [&](ColumnId id, std::uint64_t& out) -> Error {
    out = 0;
    for (const std::uint64_t v : p.col(id)) {
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
  };
  const struct {
    ColumnId count;
    std::initializer_list<ColumnId> children;
    const char* what;
  } groups[] = {
      {ColumnId::kUsageCount,
       {ColumnId::kUsageClient, ColumnId::kUsageApp, ColumnId::kUsageTx,
        ColumnId::kUsageRx},
       "usage"},
      {ColumnId::kUtilCount,
       {ColumnId::kUtilBand, ColumnId::kUtilChannel, ColumnId::kUtilCycle,
        ColumnId::kUtilBusy, ColumnId::kUtilRxFrame, ColumnId::kUtilTx},
       "utilization"},
      {ColumnId::kNeighborCount,
       {ColumnId::kNbrBssid, ColumnId::kNbrBand, ColumnId::kNbrChannel,
        ColumnId::kNbrRssi, ColumnId::kNbrFlags},
       "neighbor"},
      {ColumnId::kLinkCount,
       {ColumnId::kLinkFrom, ColumnId::kLinkBand, ColumnId::kLinkChannel,
        ColumnId::kLinkExpected, ColumnId::kLinkReceived},
       "link"},
      {ColumnId::kClientCount,
       {ColumnId::kClientMac, ColumnId::kClientCaps, ColumnId::kClientBand,
        ColumnId::kClientRssi, ColumnId::kClientOs},
       "client"},
  };
  for (const auto& g : groups) {
    std::uint64_t total = 0;
    if (auto err = checked_sum(g.count, total)) return err;
    for (const ColumnId child : g.children) {
      if (auto err = require_rows(child, total, g.what)) return err;
    }
  }
  // Mesh columns are optional (absent for non-mesh segments) but must be
  // per-report-shaped and travel as a pair when present — a lone column is
  // tampering, and resume byte-identity depends on both surviving.
  {
    const bool has_hops = p.ints.count(ColumnId::kMeshHops) != 0;
    const bool has_relay = p.ints.count(ColumnId::kMeshRelayUs) != 0;
    if (has_hops != has_relay) {
      return {Status::kBadCount, "mesh columns must both be present or absent"};
    }
    if (has_hops) {
      if (auto err = require_rows(ColumnId::kMeshHops, hdr.n_reports, "mesh hops column")) {
        return err;
      }
      if (auto err = require_rows(ColumnId::kMeshRelayUs, hdr.n_reports,
                                  "mesh relay column")) {
        return err;
      }
    }
  }
  // Dictionary references must resolve.
  const std::size_t dict_size = p.col(ColumnId::kMacDict).size();
  for (const ColumnId id :
       {ColumnId::kUsageClient, ColumnId::kNbrBssid, ColumnId::kClientMac}) {
    for (const std::uint64_t idx : p.col(id)) {
      if (idx >= dict_size) return {Status::kMalformed, "MAC dict index out of range"};
    }
  }
  // Distinct-AP header field vs. the AP column itself.
  std::uint64_t distinct = 0;
  const auto& aps = p.col(ColumnId::kApId);
  for (std::size_t i = 0; i < aps.size(); ++i) {
    if (i == 0 || aps[i] != aps[i - 1]) ++distinct;
  }
  if (distinct != hdr.n_aps) {
    return {Status::kBadCount, "header n_aps disagrees with the AP column"};
  }
  return {};
}

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

Error parse(std::span<const std::uint8_t> bytes, Parsed& out) {
  Walk w{bytes};
  if (auto err = walk_header(w, out.hdr)) return err;
  for (std::uint64_t i = 0; i < out.hdr.n_blocks; ++i) {
    RawBlock b;
    if (auto err = walk_block(w, b)) return err;
    if (auto err = decode_block(b, out)) return err;
  }
  if (w.remaining() > kTrailerBytes) {
    return {Status::kMalformed, "trailing bytes after final block"};
  }
  if (w.remaining() < kTrailerBytes) return {Status::kTruncated, "missing segment CRC"};
  const std::uint32_t stored = read_u32le(bytes.data() + w.pos);
  const std::uint32_t computed =
      crc32({bytes.data() + kMagic.size(), bytes.size() - kMagic.size() - kTrailerBytes});
  if (stored != computed) return {Status::kBadCrc, "segment trailer failed its CRC"};
  return cross_check(out);
}

}  // namespace

Error SegmentReader::read_header(std::span<const std::uint8_t> bytes, SegmentHeader& out) {
  Walk w{bytes};
  return walk_header(w, out);
}

Error SegmentReader::validate(std::span<const std::uint8_t> bytes) {
  Parsed p;
  return guard_alloc([&] { return parse(bytes, p); });
}

Error SegmentReader::for_each(std::span<const std::uint8_t> bytes,
                              const std::function<void(wire::ApReport&&)>& fn) {
  Parsed p;
  if (auto err = guard_alloc([&] { return parse(bytes, p); })) return err;
  // Every column is bound once here: Parsed::col is a map lookup, far too
  // slow to repeat per row.
  const auto& dict = p.col(ColumnId::kMacDict);
  const auto& aps = p.col(ColumnId::kApId);
  const auto& ts = p.col(ColumnId::kTimestamp);
  const auto& fw = p.col(ColumnId::kFirmware);
  // Optional mesh columns: cross_check guarantees n_reports rows when present.
  const auto& mesh_hops = p.col(ColumnId::kMeshHops);
  const auto& mesh_relay = p.col(ColumnId::kMeshRelayUs);
  const auto& n_usage = p.col(ColumnId::kUsageCount);
  const auto& usage_client = p.col(ColumnId::kUsageClient);
  const auto& usage_app = p.col(ColumnId::kUsageApp);
  const auto& usage_tx = p.col(ColumnId::kUsageTx);
  const auto& usage_rx = p.col(ColumnId::kUsageRx);
  const auto& n_util = p.col(ColumnId::kUtilCount);
  const auto& util_band = p.col(ColumnId::kUtilBand);
  const auto& util_channel = p.col(ColumnId::kUtilChannel);
  const auto& util_cycle = p.col(ColumnId::kUtilCycle);
  const auto& util_busy = p.col(ColumnId::kUtilBusy);
  const auto& util_rxf = p.col(ColumnId::kUtilRxFrame);
  const auto& util_tx = p.col(ColumnId::kUtilTx);
  const auto& n_nbr = p.col(ColumnId::kNeighborCount);
  const auto& nbr_bssid = p.col(ColumnId::kNbrBssid);
  const auto& nbr_band = p.col(ColumnId::kNbrBand);
  const auto& nbr_channel = p.col(ColumnId::kNbrChannel);
  const auto& nbr_rssi = p.fcol(ColumnId::kNbrRssi);
  const auto& nbr_flags = p.col(ColumnId::kNbrFlags);
  const auto& n_link = p.col(ColumnId::kLinkCount);
  const auto& link_from = p.col(ColumnId::kLinkFrom);
  const auto& link_band = p.col(ColumnId::kLinkBand);
  const auto& link_channel = p.col(ColumnId::kLinkChannel);
  const auto& link_expected = p.col(ColumnId::kLinkExpected);
  const auto& link_received = p.col(ColumnId::kLinkReceived);
  const auto& n_client = p.col(ColumnId::kClientCount);
  const auto& client_mac = p.col(ColumnId::kClientMac);
  const auto& client_caps = p.col(ColumnId::kClientCaps);
  const auto& client_band = p.col(ColumnId::kClientBand);
  const auto& client_rssi = p.fcol(ColumnId::kClientRssi);
  const auto& client_os = p.col(ColumnId::kClientOs);
  std::size_t u = 0, c = 0, n = 0, l = 0, s = 0;  // child cursors
  for (std::uint64_t r = 0; r < p.hdr.n_reports; ++r) {
    wire::ApReport report;
    report.ap_id = static_cast<std::uint32_t>(aps[r]);
    report.timestamp_us = static_cast<std::int64_t>(ts[r]);
    report.firmware = static_cast<std::uint32_t>(fw[r]);
    if (!mesh_hops.empty()) {
      report.mesh_hops = static_cast<std::uint32_t>(mesh_hops[r]);
      report.mesh_relay_us = mesh_relay[r];
    }
    const std::uint64_t nu = n_usage[r];
    report.usage.reserve(nu);
    for (std::uint64_t i = 0; i < nu; ++i, ++u) {
      wire::ClientUsage row;
      row.client = MacAddress::from_u64(dict[usage_client[u]]);
      row.app_id = static_cast<std::uint32_t>(usage_app[u]);
      row.tx_bytes = usage_tx[u];
      row.rx_bytes = usage_rx[u];
      report.usage.push_back(row);
    }
    const std::uint64_t nc = n_util[r];
    report.utilization.reserve(nc);
    for (std::uint64_t i = 0; i < nc; ++i, ++c) {
      wire::ChannelUtilization row;
      row.band = static_cast<std::uint8_t>(util_band[c]);
      row.channel = static_cast<std::int32_t>(util_channel[c]);
      row.cycle_us = util_cycle[c];
      row.busy_us = util_busy[c];
      row.rx_frame_us = util_rxf[c];
      row.tx_us = util_tx[c];
      report.utilization.push_back(row);
    }
    const std::uint64_t nn = n_nbr[r];
    report.neighbors.reserve(nn);
    for (std::uint64_t i = 0; i < nn; ++i, ++n) {
      wire::NeighborBss row;
      row.bssid = MacAddress::from_u64(dict[nbr_bssid[n]]);
      row.band = static_cast<std::uint8_t>(nbr_band[n]);
      row.channel = static_cast<std::int32_t>(nbr_channel[n]);
      row.rssi_dbm = nbr_rssi[n];
      const std::uint64_t flags = nbr_flags[n];
      row.is_hotspot = (flags & 1) != 0;
      row.is_same_fleet = (flags & 2) != 0;
      report.neighbors.push_back(row);
    }
    const std::uint64_t nl = n_link[r];
    report.links.reserve(nl);
    for (std::uint64_t i = 0; i < nl; ++i, ++l) {
      wire::LinkProbeWindow row;
      row.from_ap = static_cast<std::uint32_t>(link_from[l]);
      row.band = static_cast<std::uint8_t>(link_band[l]);
      row.channel = static_cast<std::int32_t>(link_channel[l]);
      row.probes_expected = static_cast<std::uint32_t>(link_expected[l]);
      row.probes_received = static_cast<std::uint32_t>(link_received[l]);
      report.links.push_back(row);
    }
    const std::uint64_t ns = n_client[r];
    report.clients.reserve(ns);
    for (std::uint64_t i = 0; i < ns; ++i, ++s) {
      wire::ClientSnapshot row;
      row.client = MacAddress::from_u64(dict[client_mac[s]]);
      row.capability_bits = static_cast<std::uint32_t>(client_caps[s]);
      row.band = static_cast<std::uint8_t>(client_band[s]);
      row.rssi_dbm = client_rssi[s];
      row.os_id = static_cast<std::uint8_t>(client_os[s]);
      report.clients.push_back(row);
    }
    fn(std::move(report));
  }
  return {};
}

Error SegmentReader::ap_ids(std::span<const std::uint8_t> bytes,
                            std::vector<std::uint32_t>& out) {
  Walk w{bytes};
  SegmentHeader hdr;
  if (auto err = walk_header(w, hdr)) return err;
  for (std::uint64_t i = 0; i < hdr.n_blocks; ++i) {
    RawBlock b;
    if (auto err = walk_block(w, b)) return err;
    if (b.id != ColumnId::kApId) continue;
    Parsed p;
    p.hdr = hdr;
    if (auto err = guard_alloc([&] { return decode_block(b, p); })) return err;
    out.clear();
    for (const std::uint64_t v : p.col(ColumnId::kApId)) {
      if (out.empty() || out.back() != static_cast<std::uint32_t>(v)) {
        out.push_back(static_cast<std::uint32_t>(v));
      }
    }
    return {};
  }
  if (hdr.n_reports > 0) return {Status::kBadCount, "AP column missing"};
  out.clear();
  return {};
}

}  // namespace wlm::tsdb

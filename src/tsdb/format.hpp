// wlm::tsdb segment format: the columnar, compressed container sealed shard
// harvests travel in.
//
// A segment is one shard's harvest batch, shredded into per-field columns:
//
//   [8B magic "WLMTSEG\x01"] [u32 LE version] [u32 LE network id]
//   [u32 LE batch seq] [varint n_reports] [varint n_aps]
//   [varint raw_wire_bytes] [varint n_blocks]
//   block*: [u8 column id] [u8 encoding] [varint row count]
//           [varint zigzag min] [varint zigzag max]
//           [varint payload len] [payload] [u32 LE crc32(payload)]
//   [u32 LE segment crc over everything after the magic]
//
// Columns reuse the wire varint/zigzag primitives (wire/varint.hpp); the
// compression comes from dropping the row format's per-field tags, delta
// coding the sorted streams (AP ids, timestamps, channels), and dictionary
// coding the two heavy repeated values (client/BSSID MACs, RSSI doubles).
// Integer blocks carry min/max summaries of their rows; no reader prunes on
// them, because every analysis window covers the whole run.
//
// A segment is valid exactly when SegmentWriter would seal its bytes:
// SegmentReader::validate decodes, re-seals and compares. Like the
// checkpoint container, the reader is adversarial by construction:
// truncations, flipped bits, bumped versions, and CRC-valid bytes the
// writer would not produce all surface as a typed Status, never a crash or
// a partial parse (tests/tsdb/segment_fuzz_test.cpp holds this line).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

namespace wlm::tsdb {

enum class Status : std::uint8_t {
  kOk = 0,
  kIo,          // spill file unreadable/unwritable
  kBadMagic,    // not a tsdb segment
  kBadVersion,  // a future (or corrupted) format revision
  kTruncated,   // ran out of bytes mid-structure
  kBadCrc,      // a block payload or the segment trailer failed its CRC
  kMalformed,   // syntactically broken block content
  kBadCount,    // CRC-valid but internally inconsistent row/report counts
  kNotCanonical,  // decodes, but is not what the writer seals for its reports
};

[[nodiscard]] const char* status_name(Status s);

/// Typed failure: status plus a one-line human diagnostic.
struct Error {
  Status status = Status::kOk;
  std::string detail;

  [[nodiscard]] bool ok() const { return status == Status::kOk; }
  [[nodiscard]] explicit operator bool() const { return !ok(); }
};

inline constexpr std::array<std::uint8_t, 8> kMagic = {'W', 'L', 'M', 'T',
                                                       'S', 'E', 'G', '\x01'};
inline constexpr std::uint32_t kFormatVersion = 1;

/// Column ids. Append, never renumber (same contract as the wire format).
/// Each id has one entry in segment.cpp's column table and one line in a
/// fields() list there; a new last id also moves kColumnSlots.
enum class ColumnId : std::uint8_t {
  kApId = 1,       // per report, ascending (canonical order)
  kTimestamp = 2,  // per report, near-sorted within an AP
  kFirmware = 3,   // per report
  kUsageCount = 4,  // per report: rows in the usage columns
  kUtilCount = 5,
  kNeighborCount = 6,
  kLinkCount = 7,
  kClientCount = 8,
  kMacDict = 9,  // segment-wide MAC dictionary, sorted u64, delta coded
  kUsageClient = 10,  // dict index
  kUsageApp = 11,
  kUsageTx = 12,
  kUsageRx = 13,
  kUtilBand = 14,
  kUtilChannel = 15,
  kUtilCycle = 16,
  kUtilBusy = 17,
  kUtilRxFrame = 18,
  kUtilTx = 19,
  kNbrBssid = 20,  // dict index
  kNbrBand = 21,
  kNbrChannel = 22,
  kNbrRssi = 23,
  kNbrFlags = 24,  // bit 0 is_hotspot, bit 1 is_same_fleet
  kLinkFrom = 25,
  kLinkBand = 26,
  kLinkChannel = 27,
  kLinkExpected = 28,
  kLinkReceived = 29,
  kClientMac = 30,  // dict index
  kClientCaps = 31,
  kClientBand = 32,
  kClientRssi = 33,
  kClientOs = 34,
  // Mesh backhaul accounting (per report). Emitted only when some report in
  // the segment actually relayed, so non-mesh segments seal byte-identically
  // to readers/writers that predate the columns.
  kMeshHops = 35,
  kMeshRelayUs = 36,
};

/// Slots of an array indexed by column id: one past the last id.
inline constexpr std::size_t kColumnSlots = static_cast<std::size_t>(ColumnId::kMeshRelayUs) + 1;

/// RSSI columns switch from dictionary to raw fixed64 past this many
/// distinct values (a dictionary larger than the rows it indexes inflates).
/// The writer never seals a kDictF64 block with a larger dictionary.
inline constexpr std::size_t kMaxF64Dict = 4096;

/// Per-block payload encodings. Integer columns pick whichever of
/// kVarint/kDictVarint is smaller for their data — the choice depends only
/// on the values, so sealed bytes stay identical across --jobs.
enum class Encoding : std::uint8_t {
  kVarint = 1,     // plain u64 varints
  kDeltaZigzag,    // zigzag(v[i] - v[i-1]) varints, v[-1] = 0
  kFixed64,        // raw 8-byte LE words (IEEE-754 bit patterns)
  kDictF64,        // varint dict size + delta-coded sorted bit patterns,
                   // then ceil(log2(n))-bit packed indices (LSB-first)
  kDictVarint,     // varint dict size + delta-coded sorted u64 dict,
                   // then ceil(log2(n))-bit packed indices (LSB-first)
};

}  // namespace wlm::tsdb

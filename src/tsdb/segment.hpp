// Columnar segment writer/reader (format in tsdb/format.hpp).
//
// SegmentWriter shreds wire::ApReports — appended in canonical order
// (ascending AP id, per-AP arrival order) — into one column per field and
// seals them into one immutable, CRC-guarded byte block. SegmentReader
// is the adversarial inverse: it checks frames, CRCs and row counts before
// reassembling a single report, validate() accepts only the bytes the
// writer would seal, and every failure surfaces as a typed tsdb::Error.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "tsdb/format.hpp"
#include "wire/messages.hpp"

namespace wlm::tsdb {

/// Slot hash of build_dict's open-addressing table (the murmur3 finalizer's
/// first half): spreads high-bit-only differences, such as f64 bit
/// patterns, into the low bits the table masks.
[[nodiscard]] constexpr std::uint64_t dict_hash(std::uint64_t v) {
  v ^= v >> 33;
  v *= 0xff51afd7ed558ccdULL;
  return v ^ (v >> 33);
}

/// Dictionary-codes `col` in linear time: `dict` receives its distinct
/// values ascending and `ranks[i]` the index of `col[i]` in `dict`, exactly
/// what sort + unique + lower_bound would give. One hash pass collects the
/// distinct values; only those are sorted. Returns false, with `dict` and
/// `ranks` unspecified, as soon as more than `max_distinct` values appear.
/// `col` holds fewer than 2^32 rows.
bool build_dict(std::span<const std::uint64_t> col, std::vector<std::uint64_t>& dict,
                std::vector<std::uint32_t>& ranks,
                std::size_t max_distinct = static_cast<std::size_t>(-1));

class SegmentWriter {
 public:
  SegmentWriter(std::uint32_t network_id, std::uint32_t batch_seq)
      : network_id_(network_id), batch_seq_(batch_seq) {}

  /// Appends one report's fields to the column buffers. Callers append in
  /// canonical order; the writer does not reorder.
  void add(const wire::ApReport& report);

  [[nodiscard]] std::size_t report_count() const {
    return columns_[static_cast<std::size_t>(ColumnId::kApId)].size();
  }
  /// Total bytes the row-oriented wire encoding of the appended reports
  /// takes — the compression-ratio baseline, carried in the header.
  [[nodiscard]] std::uint64_t raw_wire_bytes() const { return raw_wire_bytes_; }
  /// Distinct AP ids appended so far, ascending (canonical input order).
  [[nodiscard]] const std::vector<std::uint32_t>& ap_ids() const { return distinct_aps_; }

  /// Seals the columns into one segment byte block. The writer is spent
  /// afterwards.
  [[nodiscard]] std::vector<std::uint8_t> seal();

 private:
  std::uint32_t network_id_;
  std::uint32_t batch_seq_;
  std::uint64_t raw_wire_bytes_ = 0;
  std::vector<std::uint32_t> distinct_aps_;
  // One column per id, rows in append order: f64 values as their bit
  // patterns, MACs raw until seal() ranks them in the segment dictionary.
  std::array<std::vector<std::uint64_t>, kColumnSlots> columns_;
};

/// Header fields every segment carries before its blocks.
struct SegmentHeader {
  std::uint32_t network_id = 0;
  std::uint32_t batch_seq = 0;
  std::uint64_t n_reports = 0;
  std::uint64_t n_aps = 0;
  std::uint64_t raw_wire_bytes = 0;
  std::uint64_t n_blocks = 0;
};

class SegmentReader {
 public:
  /// Accepts exactly the writer's output: parses as for_each() does, then
  /// returns kNotCanonical unless the AP column ascends and re-sealing the
  /// decoded columns under this header reproduces `bytes`. On success fills
  /// `header` and `ap_ids` (the distinct AP ids) when they are given.
  [[nodiscard]] static Error validate(std::span<const std::uint8_t> bytes,
                                      SegmentHeader* header = nullptr,
                                      std::vector<std::uint32_t>* ap_ids = nullptr);

  /// Decodes every report in append order, checking only frames, CRCs and
  /// row counts: for segments this process sealed or validated. Any error
  /// it returns, validate() returns too; on error nothing is emitted.
  [[nodiscard]] static Error for_each(
      std::span<const std::uint8_t> bytes,
      const std::function<void(wire::ApReport&&)>& fn);
};

}  // namespace wlm::tsdb

// Fleet-wide segment vault: the columnar replacement for holding every
// shard's ReportStore in memory until the final harvest.
//
// FleetRunner seals each shard's drained reports into one immutable segment
// per (network, phase) batch and hands it here. Segments stay resident
// until the configured memory ceiling presses, then spill to disk as
// sections of a ckpt container (tag kTsdbSegments) and are read back — and
// re-validated against their own CRCs — only when a reader visits that
// network. Reads materialize whole networks into scratch row stores and
// free each as soon as it is delivered, so peak read-side memory is a
// bounded window of networks' reports, not the fleet's.
//
// Determinism: segments are sealed from canonically-ordered stores and
// visited ascending by network id, batch order within a network. AP ids
// are assigned globally ascending in network-generation order, so this
// visit order IS the canonical global order (ascending AP id, per-AP
// arrival order) — byte-identical to backend::ReportStore's read path.
// Spill decisions key on deterministic byte accounting, never getrusage,
// so spilling changes where bytes live but not any analysis output.
//
// Threading: seal() is pure (it touches no vault state) and may run on any
// worker; FleetRunner seals each shard's batch in that shard's own task,
// right after the task drained it. add_sealed(),
// drop_network() and spill run on the orchestrating thread only, and
// FleetRunner calls add_sealed in fleet order, so the vault's segment
// order never depends on worker scheduling. Reads are called from the
// orchestrating thread too, but decode ahead: with set_read_threads(n),
// up to n - 1 helper threads decode the next networks (a window of 8n)
// while the caller delivers, and the caller decodes a network itself when
// no helper has claimed it yet. Decoding writes no vault state; the
// callback runs on the calling thread, one network at a time, ascending
// by network id, so every reader sees exactly the serial visit.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "backend/report_source.hpp"
#include "backend/store.hpp"
#include "tsdb/segment.hpp"

namespace wlm::tsdb {

/// Deterministic byte accounting, exported as wlm_tsdb_* gauges. Everything
/// here derives from sealed bytes — identical across --jobs and across
/// spill on/off — so it is safe to put in golden-checked telemetry.
struct FleetStoreStats {
  std::uint64_t segments_sealed = 0;
  std::uint64_t segments_spilled = 0;
  std::uint64_t spill_files = 0;
  std::uint64_t resident_bytes = 0;  // sealed segment bytes currently in memory
  std::uint64_t spilled_bytes = 0;   // sealed segment bytes on disk
  std::uint64_t raw_wire_bytes = 0;  // row-encoding baseline of the same reports
  std::uint64_t reports = 0;

  [[nodiscard]] std::uint64_t segment_bytes() const { return resident_bytes + spilled_bytes; }
  /// Raw row-wire bytes per sealed segment byte (>= 3x is the north star).
  [[nodiscard]] double compression_ratio() const {
    return segment_bytes() > 0
               ? static_cast<double>(raw_wire_bytes) / static_cast<double>(segment_bytes())
               : 0.0;
  }
};

class FleetStore final : public backend::ReportSource {
 public:
  /// Ceiling for resident sealed bytes, in bytes; 0 disables spilling.
  /// Sealed segments spill once they exceed a quarter of it — the rest of
  /// the budget belongs to the live shards still simulating.
  void set_mem_ceiling(std::uint64_t bytes) { mem_ceiling_bytes_ = bytes; }
  void set_spill_dir(std::string dir) { spill_dir_ = std::move(dir); }
  [[nodiscard]] std::uint64_t mem_ceiling() const { return mem_ceiling_bytes_; }
  /// Threads that decode during a read, the calling thread included; 1
  /// (the default) decodes one network, delivers it, then decodes the next.
  void set_read_threads(int threads) { read_threads_ = std::max(threads, 1); }

  /// One sealed batch, ready to index: the segment bytes plus the header
  /// facts the vault keeps beside them.
  struct Sealed {
    std::uint32_t network_id = 0;
    std::uint32_t batch_seq = 0;
    std::uint64_t n_reports = 0;
    std::uint64_t raw_wire_bytes = 0;
    std::vector<std::uint8_t> bytes;    // empty: nothing was sealed
    std::vector<std::uint32_t> ap_ids;  // distinct, ascending
  };

  /// Seals `store`'s reports (canonical order) into one segment and frees
  /// the store. Pure: safe on any thread. An empty store seals nothing.
  [[nodiscard]] static Sealed seal(std::uint32_t network_id, std::uint32_t batch_seq,
                                   backend::ReportStore&& store);
  /// Indexes a sealed batch (no-op for an empty one). The network's batch
  /// counter advances past the batch's sequence number.
  void add_sealed(Sealed&& sealed);
  /// The sequence number the network's next batch takes.
  [[nodiscard]] std::uint32_t next_batch_seq(std::uint32_t network_id) const;

  /// add_sealed(seal(network_id, next_batch_seq(network_id), store)):
  /// batch sequence numbers increment per network in call order.
  void append_store(std::uint32_t network_id, backend::ReportStore&& store);

  /// Restore path: validates a sealed segment and adopts a copy of it,
  /// allocated at its exact size. The batch counter advances past the
  /// segment's own sequence number.
  [[nodiscard]] Error adopt_segment(std::span<const std::uint8_t> bytes);

  /// Drops every segment of one network (quarantined shard: its partial
  /// batches must not reach any analysis).
  void drop_network(std::uint32_t network_id);

  /// Spills all resident segments to the next spill file when resident
  /// bytes exceed the ceiling's spill threshold. No-op without a ceiling.
  [[nodiscard]] Error maybe_spill();

  // Segment enumeration (checkpoint save path).
  [[nodiscard]] std::size_t segment_count() const { return segments_.size(); }
  struct SegmentInfo {
    std::uint32_t network_id = 0;
    std::uint32_t batch_seq = 0;
    std::uint64_t n_reports = 0;
    std::uint64_t size = 0;
    bool spilled = false;
  };
  [[nodiscard]] SegmentInfo info(std::size_t i) const;
  /// Materializes segment i's bytes (from memory or its spill file).
  [[nodiscard]] Error segment_bytes(std::size_t i, std::vector<std::uint8_t>& out) const;
  /// Hands every live (size > 0) segment's index and bytes to `fn` in vault
  /// order, reading spilled ones through one open handle per spill file.
  /// Returns the first read failure; `fn` sees no segment after it.
  [[nodiscard]] Error for_each_segment(
      const std::function<void(std::size_t, std::span<const std::uint8_t>)>& fn) const;

  [[nodiscard]] const FleetStoreStats& stats() const { return stats_; }
  /// First read-path failure, if any: ReportSource visitors cannot return
  /// errors, so the first network (ascending id) that fails to decode
  /// latches its error here; every network before it is delivered, none
  /// after it.
  [[nodiscard]] const Error& last_error() const { return last_error_; }

  // backend::ReportSource
  [[nodiscard]] std::size_t report_count() const override {
    return static_cast<std::size_t>(stats_.reports);
  }
  [[nodiscard]] std::size_t ap_count() const override;
  void for_each(const std::function<void(const wire::ApReport&)>& fn) const override;
  void for_each_in(SimTime from, SimTime to,
                   const std::function<void(const wire::ApReport&)>& fn) const override;

 private:
  struct Segment {
    std::uint32_t network_id = 0;
    std::uint32_t batch_seq = 0;
    std::uint64_t n_reports = 0;
    std::uint64_t raw_wire_bytes = 0;
    std::uint64_t size = 0;
    std::vector<std::uint8_t> bytes;  // resident; empty once spilled
    std::string spill_file;           // non-empty once spilled
    std::uint64_t spill_offset = 0;
  };
  struct Network {
    std::uint32_t next_batch_seq = 0;
    std::vector<std::size_t> segment_idx;  // into segments_, batch order
    std::vector<std::uint32_t> ap_ids;     // distinct, ascending
    std::uint64_t reports = 0;
  };

  /// The spill files one read pass has opened (see fleet_store.cpp).
  class SpillHandles;

  /// Reads a spilled segment's bytes into `out`.
  [[nodiscard]] static Error load_spilled(const Segment& seg, SpillHandles& files,
                                          std::vector<std::uint8_t>& out);
  /// Decodes one network's segments into a scratch row store (canonical
  /// order within the network). Touches no vault state: safe on any thread.
  [[nodiscard]] Error materialize(const Network& net, SpillHandles& files,
                                  backend::ReportStore& out) const;
  /// Materializes every network, ascending by id, and hands each scratch
  /// store to `deliver` on the calling thread (see Threading above).
  void visit(const std::function<void(const backend::ReportStore&)>& deliver) const;

  std::uint64_t mem_ceiling_bytes_ = 0;
  int read_threads_ = 1;
  std::string spill_dir_ = ".";
  std::uint64_t next_spill_seq_ = 0;
  std::vector<Segment> segments_;
  std::map<std::uint32_t, Network> networks_;  // ascending network id
  FleetStoreStats stats_;
  mutable Error last_error_;
};

}  // namespace wlm::tsdb

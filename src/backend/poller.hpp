// Pull-based harvesting (paper §2: "the system operates using a pull
// mechanism, which helps regulate the flow of updates during peak load").
//
// The poller walks the registered tunnels each cycle, drains their framed
// report streams, validates framing CRCs, decodes reports, and writes them
// to the store. A per-cycle frame budget provides the load regulation, and
// per-tunnel accounting drives a retry/backoff loop: a device whose frames
// keep failing CRC gets polled exponentially less often (up to quarantine at
// the maximum backoff) instead of being hammered — one broken AP must not
// absorb the collector's cycles. A clean poll resets the backoff.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "backend/store.hpp"
#include "backend/tunnel.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace wlm::backend {

struct PollerStats {
  /// Frames whose framing decoded cleanly. Corrupt frames are counted in
  /// `corrupt_frames` ONLY — a frame that yielded nothing was not harvested.
  std::uint64_t frames_harvested = 0;
  std::uint64_t corrupt_frames = 0;     // framing CRC failures
  std::uint64_t malformed_reports = 0;  // decodable frame, bad message
  std::uint64_t bytes_harvested = 0;    // bytes of clean frames only
  std::uint64_t reports_stored = 0;     // decoded reports written to the store
  std::uint64_t polls_skipped_backoff = 0;
};

/// Per-tunnel harvest accounting: the attribution the fleet-wide totals
/// cannot give (which device is feeding the collector garbage).
struct TunnelCounters {
  ApId ap;
  std::uint64_t frames_polled = 0;
  std::uint64_t corrupt_frames = 0;
  std::uint64_t malformed_reports = 0;
  std::uint64_t reports_stored = 0;
  std::uint64_t cycles_backed_off = 0;
  /// Current backoff: the tunnel is skipped for 2^level - 1 cycles after a
  /// corrupt poll. At kQuarantineBackoffLevel it is quarantined.
  int backoff_level = 0;
  int backoff_remaining = 0;
  bool quarantined = false;
};

/// Backoff doubles per consecutive corrupt cycle up to this level
/// (2^4 - 1 = 15 skipped cycles between attempts).
inline constexpr int kMaxBackoffLevel = 4;
/// Backoff level at which the tunnel counts as quarantined. Quarantine is
/// an alarm state, not a death sentence: the poller still retries at the
/// maximum backoff interval, and a clean poll lifts it.
inline constexpr int kQuarantineBackoffLevel = 4;

class Poller {
 public:
  explicit Poller(ReportStore& store) : store_(&store) {}

  /// Registers a device tunnel; the poller does not own it.
  void attach(Tunnel& tunnel);

  /// Points the poller at its shard's telemetry sinks (neither owned; both
  /// may be null to run uninstrumented). Same confinement as the store: the
  /// registry and recorder belong to the shard that owns this poller.
  void bind_telemetry(telemetry::MetricsRegistry* metrics,
                      telemetry::FlightRecorder* recorder);

  /// Advances the poller's notion of simulated time. The poller has no
  /// clock of its own — the shard stamps the campaign time before each
  /// cycle so poll spans and quarantine events carry sim time, never
  /// wall-clock.
  void set_now(std::int64_t t_us) { now_us_ = t_us; }

  /// One poll cycle over all tunnels. `per_tunnel_budget` caps the frames
  /// pulled from any one device per cycle (peak-load regulation).
  /// `ignore_backoff` forces a poll of backed-off tunnels too — the final
  /// harvest drains everything regardless of quarantine state.
  void poll_all(std::size_t per_tunnel_budget = 64, bool ignore_backoff = false);

  [[nodiscard]] const PollerStats& stats() const { return stats_; }
  [[nodiscard]] const std::vector<TunnelCounters>& tunnel_counters() const {
    return counters_;
  }
  /// Counters for one AP's tunnel; nullptr if not attached.
  [[nodiscard]] const TunnelCounters* counters_for(ApId ap) const;
  [[nodiscard]] std::int64_t now_us() const { return now_us_; }

  /// Overlays checkpointed accounting onto a freshly constructed poller with
  /// the same tunnels attached in the same order. Returns false (and changes
  /// nothing) if `counters` does not match the attached tunnels one-to-one —
  /// a checkpoint from a different world must never half-apply.
  bool restore(const PollerStats& stats, const std::vector<TunnelCounters>& counters,
               std::int64_t now_us);

 private:
  ReportStore* store_;
  std::vector<Tunnel*> tunnels_;
  std::vector<TunnelCounters> counters_;
  PollerStats stats_;
  telemetry::MetricsRegistry* metrics_ = nullptr;
  telemetry::FlightRecorder* recorder_ = nullptr;
  std::int64_t now_us_ = 0;
};

/// Device-side helper: encodes a report and frames it for the tunnel.
[[nodiscard]] std::vector<std::uint8_t> frame_report(const wire::ApReport& report);

}  // namespace wlm::backend

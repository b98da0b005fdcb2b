// Shard supervision: exception isolation, sim-time watchdog deadlines,
// checkpoint-based retry, and quarantine with accounted degradation.
//
// The paper's backend kept collecting from 20,667 networks while individual
// components crashed (§2, §6.1); this layer gives the *simulator of that
// backend* the same property. FleetRunner wraps every campaign phase in
// ShardSupervisor::run_phase: each shard's work runs inside a try/catch on
// its worker thread, a failing shard is restored from its last good
// checkpoint section and retried serially with exponential sim-time backoff,
// and a shard that exhausts its retries is quarantined — excluded from
// every later phase and from harvest merges — instead of killing the
// campaign. Nothing here sleeps or reads the wall clock: backoff is a
// recorded sim-time penalty, deadlines are accumulated injected stall hours
// (failsafe::WatchdogTimeout), and the retry pass runs in fleet order on
// the orchestrating thread, so a supervised run is bit-identical for any
// --jobs and a clean run is byte-identical to one with supervision off.
//
// Degradation is accounted, never silent (Syed et al. 2020's warning about
// silent partial data): every recovery or quarantine becomes a
// ShardIncident in the DegradedRunManifest, quarantined work moves into the
// LossLedger's explicit lost_supervision bucket via quarantined_view(), and
// publish() derives all supervisor metrics and trace spans from the
// manifest alone — so they serialize with it, rebuild identically after a
// checkpoint restore, and are absent entirely when nothing went wrong.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "fault/loss_ledger.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace wlm::failsafe {

/// First retry's sim-time penalty; doubles per subsequent retry.
inline constexpr double kRetryBackoffHours = 1.0;

struct SupervisorConfig {
  /// Restore-and-rerun attempts per shard failure before quarantine.
  std::uint64_t max_shard_retries = 2;
  /// Sim-hours of injected stall a shard may accumulate per phase before
  /// the watchdog trips (0 disables the watchdog).
  double shard_deadline_hours = 0.0;
  /// Capture a per-shard state snapshot at each phase boundary so retry can
  /// restore. Off by default (snapshots cost time and memory); wlmctl turns
  /// it on whenever a supervision flag is present. Without snapshots a
  /// failed shard quarantines on its first failure.
  bool capture_checkpoints = false;

  bool operator==(const SupervisorConfig&) const = default;
};

enum class IncidentOutcome : std::uint8_t {
  kRecovered,    // a retry re-ran the phase from the last good snapshot
  kQuarantined,  // retries exhausted (or impossible); shard excluded
};

/// One supervised failure, recovered or not. Everything the manifest,
/// telemetry, and checkpoint need derives from these fields.
struct ShardIncident {
  std::uint64_t network = 0;       // network id of the failed shard
  std::string phase;               // campaign phase (or "harvest.merge")
  std::string error;               // what() of the final failure
  std::int64_t sim_us = 0;         // sim time at the failing phase's start
  std::uint64_t failures = 0;      // attempts that failed (>= 1)
  std::uint64_t retries = 0;       // restore-and-rerun attempts made
  double backoff_hours = 0.0;      // total sim-time retry penalty charged
  IncidentOutcome outcome = IncidentOutcome::kRecovered;
  /// The shard's ledger after the incident settled (post-recovery state, or
  /// the restored last-good state a quarantined shard was parked in).
  fault::LossLedger ledger;

  bool operator==(const ShardIncident&) const = default;
};

/// Emitted alongside results by harvest(kFinal) when a campaign degraded;
/// serialized into checkpoints so a resumed run keeps its history.
struct DegradedRunManifest {
  std::vector<ShardIncident> incidents;

  [[nodiscard]] bool degraded() const;
  /// Ascending, deduplicated network ids of quarantined shards.
  [[nodiscard]] std::vector<std::uint64_t> quarantined_networks() const;
  [[nodiscard]] std::uint64_t total_failures() const;
  [[nodiscard]] std::uint64_t total_retries() const;

  /// Deterministic multi-line summary (wlmctl prints this for degraded
  /// runs; incidents in occurrence order).
  [[nodiscard]] std::string render() const;

  bool operator==(const DegradedRunManifest&) const = default;
};

/// How the supervisor reaches into shards without depending on sim:
/// FleetRunner wires these to NetworkShard + the wlm::ckpt per-shard
/// serializers. All hooks are called with a valid shard index; snapshot and
/// restore may be empty when checkpoint capture is off.
struct ShardHooks {
  std::function<std::uint64_t(std::size_t)> network_id;
  std::function<std::vector<std::uint8_t>(std::size_t)> snapshot;
  std::function<bool(std::size_t, const std::vector<std::uint8_t>&)> restore;
  std::function<fault::LossLedger(std::size_t)> ledger;
};

class ShardSupervisor {
 public:
  void configure(SupervisorConfig config, std::size_t shard_count, ShardHooks hooks);

  [[nodiscard]] const SupervisorConfig& config() const { return config_; }
  [[nodiscard]] bool quarantined(std::size_t shard) const {
    return shard < quarantined_.size() && quarantined_[shard] != 0;
  }
  [[nodiscard]] std::size_t quarantined_count() const;
  [[nodiscard]] const DegradedRunManifest& manifest() const { return manifest_; }
  [[nodiscard]] bool degraded() const { return manifest_.degraded(); }

  /// Runs one campaign phase under supervision. `run_all` is the caller's
  /// worker-pool dispatcher (it invokes its argument once per shard index,
  /// possibly concurrently); `body` is the phase work for one shard. Each
  /// shard executes inside a ScopedShardContext (failpoint entity + watchdog
  /// deadline) with exceptions confined to a per-shard failure slot; failed
  /// shards are then restored/retried/quarantined serially in fleet order.
  void run_phase(std::string_view phase, std::int64_t sim_now_us,
                 const std::function<void(std::size_t)>& body,
                 const std::function<void(const std::function<void(std::size_t)>&)>& run_all);

  /// Guards one shard's harvest merge: false means "do not merge this
  /// shard" (already quarantined, or the harvest.merge failpoint exhausted
  /// its retries — merge has no shard state to restore, so retry is a
  /// plain re-evaluation).
  [[nodiscard]] bool guard_merge(std::size_t shard, std::int64_t sim_now_us);

  /// Re-derives every supervisor metric and trace span from the manifest
  /// into freshly rebuilt fleet telemetry. Publishes nothing when there are
  /// no incidents, so clean runs carry no trace of the supervision layer.
  void publish(telemetry::MetricsRegistry& metrics,
               std::vector<telemetry::TraceSpan>& trace) const;

  /// Checkpoint restore: adopt a saved manifest and rebuild the quarantine
  /// set from its kQuarantined incidents (configure() must have run).
  void restore_manifest(DegradedRunManifest manifest);

  /// A quarantined shard's contribution to the fleet ledger: its delivered
  /// and in-flight work is struck from those buckets and accounted as
  /// lost_supervision, keeping the conservation invariant closed while
  /// recording that supervision — not the simulated network — lost it.
  [[nodiscard]] static fault::LossLedger quarantined_view(const fault::LossLedger& ledger);

 private:
  struct Failure {
    bool failed = false;
    std::string error;
  };

  void recover(std::size_t shard, std::string_view phase, std::int64_t sim_now_us,
               std::string first_error, const std::function<void(std::size_t)>& body);

  SupervisorConfig config_;
  ShardHooks hooks_;
  std::vector<std::uint8_t> quarantined_;
  std::vector<std::vector<std::uint8_t>> snapshots_;
  std::vector<std::uint8_t> has_snapshot_;
  DegradedRunManifest manifest_;
};

}  // namespace wlm::failsafe

// The fleet runtime: partitions a generated fleet into per-network shards,
// fans campaigns out across a worker pool, and seals the shard-local report
// stores into one columnar segment vault, each shard in its own task.
//
// Determinism contract: for a fixed WorldConfig (minus `threads`), every
// byte of simulated output is identical for any thread count, including 1.
// Three properties carry that guarantee:
//   1. each shard draws its RNG from a substream keyed by the network id,
//      so no draw depends on cross-shard scheduling;
//   2. every mutable object a campaign touches (APs, tunnels, poller, store)
//      is confined to its shard, so workers never contend;
//   3. sealed shard batches are indexed in fleet order (at harvest, and
//      under a ceiling after every campaign phase), so the vault's contents
//      are independent of which worker ran which shard.
//
// Construction: the calling thread generates the fleet network by network
// while up to `threads - 1` helpers build each network's shard as soon as
// it is published; the calling thread then joins them, so construction
// uses at most `threads` (`--jobs`) threads. `fleet_.networks` is reserved
// for every network before the first is generated and never resized after:
// each shard keeps a pointer to its NetworkConfig and each ApRuntime one to
// its ApConfig, neither a copy.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "backend/report_source.hpp"
#include "core/ptr_span.hpp"
#include "deploy/generator.hpp"
#include "failsafe/supervisor.hpp"
#include "sim/network_shard.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"
#include "tsdb/fleet_store.hpp"

namespace wlm::sim {

struct WorldConfig {
  deploy::FleetConfig fleet;
  /// Scales clients per AP (1.0 = the industry-calibrated counts).
  /// Negative or NaN values clamp to 0 at construction.
  double client_scale = 1.0;
  std::uint64_t seed = 7;
  /// Fault scenario applied per shard; all-zeros runs a clean campaign.
  fault::FaultSpec faults;
  /// Client mobility: random-waypoint walks + occupancy-wave handoffs.
  /// Disabled by default; disabled runs are byte-identical to pre-mobility
  /// builds (mobility draws live in their own salted substream).
  mobility::MobilityConfig mobility;
  /// Mesh backhaul: a fraction of each network's APs lose their WAN uplink
  /// and relay report batches hop by hop to gateway APs. Disabled by
  /// default (mesh_fraction == 0); disabled runs are byte-identical to
  /// pre-mesh builds (mesh draws live in their own salted substream).
  mesh::MeshConfig mesh;
  /// Worker threads for shard campaigns; 1 runs fully serial. Output is
  /// bit-identical regardless of this value.
  int threads = 1;
  /// Per-shard memory ceiling in MiB; 0 runs the classic hold-until-final
  /// harvest. Nonzero turns on streaming harvest: each shard's campaign
  /// task ends by draining its connected tunnels and sealing the phase's
  /// batch into a columnar tsdb segment, releasing the shard's row store,
  /// so only the shards on the workers hold queued frames and decoded rows.
  /// Sealed segments spill to `spill_dir` when resident segment bytes press
  /// the ceiling. The on/off bit is determinism-relevant (phase drains add
  /// poll cycles) and is checkpointed; the value itself is a host resource
  /// knob like `threads` — output is bit-identical for ANY nonzero ceiling,
  /// across thread counts, and across spill on/off.
  std::uint64_t mem_ceiling_mb = 0;
  /// Where sealed segments spill when the ceiling presses (see above).
  std::string spill_dir = ".";
  /// Shard supervision knobs (retry budget, watchdog deadline, snapshot
  /// capture). Defaults supervise without snapshots: a failing shard is
  /// isolated and quarantined rather than retried. A clean campaign's
  /// output is byte-identical whatever these are set to.
  failsafe::SupervisorConfig supervision;
};

/// Delivery-ratio time series sample for one link (Figures 4/5).
struct SeriesPoint {
  double hour_of_week = 0.0;
  double ratio = 0.0;
};

class FleetRunner {
 public:
  explicit FleetRunner(WorldConfig config);

  // --- structure ---
  [[nodiscard]] const WorldConfig& config() const { return config_; }
  [[nodiscard]] deploy::Epoch epoch() const { return config_.fleet.epoch; }
  [[nodiscard]] const deploy::Fleet& fleet() const { return fleet_; }
  [[nodiscard]] const std::vector<std::unique_ptr<NetworkShard>>& shards() const {
    return shards_;
  }
  /// All AP runtimes across shards, in fleet order (flat non-owning view).
  [[nodiscard]] PtrSpan<ApRuntime> aps() { return {ap_ptrs_.data(), ap_ptrs_.size()}; }
  [[nodiscard]] PtrSpan<const ApRuntime> aps() const {
    return {ap_ptrs_.data(), ap_ptrs_.size()};
  }
  [[nodiscard]] PtrSpan<MeshLink> mesh_links() {
    return {link_ptrs_.data(), link_ptrs_.size()};
  }
  /// The harvested fleet as a columnar read source (backend/report_source
  /// contract: canonical order, one network resident at a time).
  [[nodiscard]] const backend::ReportSource& reports() const { return fleet_tsdb_; }
  /// Segment vault access for checkpointing and bench accounting.
  [[nodiscard]] const tsdb::FleetStore& fleet_tsdb() const { return fleet_tsdb_; }
  [[nodiscard]] tsdb::FleetStore& fleet_tsdb() { return fleet_tsdb_; }
  [[nodiscard]] std::size_t client_count() const;
  [[nodiscard]] ApRuntime* find_ap(ApId id);

  // --- campaigns: each fans out shard-by-shard across the worker pool ---

  /// The one-week usage study (Tables 3/5/6): generates each client's
  /// weekly workload, classifies its flows AT THE AP with the real parsers
  /// and rule engine, and emits `reports_per_week` usage reports per AP.
  /// `spikes` injects fleet-wide software-update events (paper §6.2).
  void run_usage_week(int reports_per_week = 7,
                      const std::vector<traffic::UpdateSpike>& spikes = {});

  /// Associated-client snapshot (Figure 1 / Table 4): capabilities + RSSI.
  void snapshot_clients(SimTime t);

  /// MR16-style interference measurement: serving-channel utilization plus
  /// the neighbor scan table (Figures 2/6, Table 7).
  void run_mr16_interference(SimTime t);

  /// MR18-style dedicated-radio scan window across all channels
  /// (Figures 7/8/9/10). `hour` selects day/night activity.
  void run_mr18_scan(SimTime t, double hour);

  /// Link-probe windows for every mesh link, recorded at the receiver and
  /// reported (Figure 3).
  void run_link_windows(SimTime t);

  /// Drains each shard's tunnels and seals what it drained, one supervised
  /// task per shard on the worker pool, then indexes the kept shards'
  /// batches into the segment vault in fleet order and rebuilds the merged
  /// telemetry. kFinal reconnects every tunnel first (queued reports must
  /// survive a WAN outage, per the paper's §2 design); kWeekEnd leaves APs
  /// inside a still-open outage offline, their backlog in flight.
  void harvest(HarvestMode mode = HarvestMode::kFinal);

  /// Runs `fn(index, link)` for every mesh link, where `index` is the
  /// link's position in mesh_links(). Each shard's links are one task on
  /// the worker pool, visited in order. `fn` may change only `link` (each
  /// link owns its RNG and fading processes) and may read any AP, so the
  /// result is the same at any thread count.
  void for_each_link(const std::function<void(std::size_t, MeshLink&)>& fn);

  /// Delivery-ratio time series for one link across a simulated week
  /// (Figures 4/5); `link_index` indexes the flat mesh_links() view.
  [[nodiscard]] std::vector<SeriesPoint> link_week_series(std::size_t link_index,
                                                          Duration step);

  // --- pipeline statistics ---
  [[nodiscard]] std::uint64_t flows_classified() const;
  [[nodiscard]] std::uint64_t flows_misclassified() const;
  /// Total framed bytes enqueued per AP over the last usage campaign, for
  /// the ~1 kbit/s overhead claim.
  [[nodiscard]] double mean_report_bytes_per_ap() const;
  /// Fleet-wide end-to-end loss accounting, summed over shards in fleet
  /// order (see fault::LossLedger for the conservation invariant). A
  /// quarantined shard contributes its quarantined view: delivered and
  /// in-flight work moves to lost_supervision, keeping the fleet invariant
  /// closed while naming what supervision cost.
  [[nodiscard]] fault::LossLedger loss_ledger() const;

  // --- supervision ---

  /// The shard supervision layer: exception isolation, watchdog deadlines,
  /// checkpoint-based retry, quarantine (see failsafe::ShardSupervisor).
  /// Every campaign phase runs through it.
  [[nodiscard]] const failsafe::ShardSupervisor& supervisor() const { return supervisor_; }
  [[nodiscard]] failsafe::ShardSupervisor& supervisor() { return supervisor_; }
  /// Checkpoint restore: adopt a saved degraded-run manifest and rebuild
  /// the quarantine set from it.
  void restore_supervision(failsafe::DegradedRunManifest manifest);

  // --- telemetry ---

  /// Merged fleet metrics, rebuilt from the shard registries (in fleet
  /// order) at every harvest(). Empty before the first harvest. Like the
  /// store, the snapshot is bit-identical for any thread count.
  [[nodiscard]] const telemetry::MetricsRegistry& metrics() const { return metrics_; }
  /// Mutable access for checkpoint restore (overlays the merged snapshot).
  [[nodiscard]] telemetry::MetricsRegistry& metrics() { return metrics_; }
  /// Merged trace spans, shard-major in fleet order, same rebuild rule.
  [[nodiscard]] const std::vector<telemetry::TraceSpan>& trace() const { return trace_; }
  [[nodiscard]] std::vector<telemetry::TraceSpan>& trace() { return trace_; }
  // Wall-clock phase timings (build, each campaign, harvest_drain/merge) go
  // to telemetry::global_profiler(): real elapsed time, NOT deterministic,
  // and never part of metrics()/trace().

  // --- campaign progress ---

  /// Simulated hours covered by campaigns so far (usage weeks contribute
  /// 168 h each; instantaneous snapshots contribute none). Checkpoint
  /// cadence (`--checkpoint-every <sim-hours>`) keys off this.
  [[nodiscard]] double campaign_sim_hours() const { return campaign_sim_hours_; }
  /// Restore-side overwrite, paired with the checkpoint's progress record.
  void set_campaign_sim_hours(double hours) { campaign_sim_hours_ = hours; }

 private:
  WorldConfig config_;
  /// Reserved up front and never resized: shards and APs point into it.
  deploy::Fleet fleet_;
  std::vector<std::unique_ptr<NetworkShard>> shards_;
  std::vector<ApRuntime*> ap_ptrs_;
  std::vector<MeshLink*> link_ptrs_;
  std::unordered_map<std::uint32_t, ApRuntime*> ap_lookup_;
  tsdb::FleetStore fleet_tsdb_;
  telemetry::MetricsRegistry metrics_;
  std::vector<telemetry::TraceSpan> trace_;
  failsafe::ShardSupervisor supervisor_;
  double campaign_sim_hours_ = 0.0;

  /// Runs `fn(i)` for every i in [0, count) on at most `threads` threads:
  /// the calling thread plus up to threads - 1 helpers, which claim indices
  /// in ascending order (serial when threads <= 1). `fn` must confine itself
  /// to shard i's state. With `produce`, the calling thread first runs
  /// produce(publish), which must call publish(i) for i = 0, 1, ... in order
  /// once index i is ready; helpers run fn(i) only after it is published,
  /// and the calling thread joins the claim loop when produce returns. If
  /// `fn` throws on any thread, no further index is claimed and, once every
  /// helper has joined, the exception of the lowest failing index is
  /// rethrown on the calling thread.
  void parallel_for(
      std::size_t count, const std::function<void(std::size_t)>& fn,
      const std::function<void(const std::function<void(std::size_t)>&)>& produce = {});
  /// Campaign-phase dispatch under supervision: fans `fn(shard index)` out
  /// across the worker pool with per-shard exception isolation, then lets
  /// the supervisor restore/retry/quarantine failed shards in fleet order.
  void run_supervised(const char* phase, const std::function<void(std::size_t)>& fn);
  /// One campaign phase end to end: runs `fn` on every shard under
  /// supervision, advances the campaign clock by `sim_hours` and records
  /// the phase's wall clock under `phase`. Under a ceiling (streaming
  /// harvest) the phase runs through run_sealed: each shard's task also
  /// drains its connected tunnels at the phase's end clock and seals the
  /// batch, so a failed drain is retried or quarantined like the campaign;
  /// the batches are then indexed in fleet order and the vault spills if
  /// the ceiling presses. The recorded time includes those drains and seals.
  void run_campaign_phase(const char* phase, double sim_hours,
                          const std::function<void(NetworkShard&)>& fn);
  /// Runs `work(shard)` then seals the shard's staged rows, one supervised
  /// task per shard, and returns the sealed batches in fleet order. The
  /// seal is each task's last step, so a quarantined shard's slot is empty:
  /// none of its attempts got that far. Empty stores seal nothing.
  [[nodiscard]] std::vector<tsdb::FleetStore::Sealed> run_sealed(
      const char* phase, const std::function<void(NetworkShard&)>& work);
  /// Indexes sealed batches into the vault serially in fleet order (empty
  /// ones are skipped), then spills if the ceiling presses.
  void index_sealed(std::vector<tsdb::FleetStore::Sealed> sealed);
  /// Campaign clock in sim microseconds at `hours`.
  [[nodiscard]] static std::int64_t sim_us(double hours) {
    return static_cast<std::int64_t>(hours * 3.6e9);
  }
  /// Sim-time stamp for supervision incidents/spans: the campaign clock at
  /// the current phase's start.
  [[nodiscard]] std::int64_t sim_now_us() const { return sim_us(campaign_sim_hours_); }
};

}  // namespace wlm::sim

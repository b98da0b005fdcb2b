// Experiment drivers: one entry point per table/figure of the paper.
//
// Each run_* function builds the necessary simulated fleets, pushes all
// telemetry through the wire format / tunnels / poller, and computes its
// results FROM THE BACKEND STORE ONLY. Each render_* function produces the
// table or ASCII figure next to the paper's reference values.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "backend/aggregate.hpp"
#include "core/stats.hpp"
#include "deploy/epoch.hpp"
#include "fault/loss_ledger.hpp"
#include "mac/mesh.hpp"
#include "mobility/mobility.hpp"

namespace wlm::analysis {

/// Scale knobs shared by all experiments. The defaults run in seconds on a
/// laptop; raise `networks` toward the paper's 20,667 for higher fidelity.
struct ScenarioScale {
  int networks = 250;
  double client_scale = 1.0;
  std::uint64_t seed = 2015;
  /// Worker threads for the fleet runtime; output is identical for any
  /// value (see sim::FleetRunner's determinism contract).
  int threads = 1;
  /// Streaming-harvest memory ceiling in MiB (0 = classic hold-until-final
  /// harvest). Renders are byte-identical for any FIXED value; see
  /// sim::WorldConfig::mem_ceiling_mb.
  std::uint64_t mem_ceiling_mb = 0;
  /// Where sealed segments spill when the ceiling presses.
  std::string spill_dir = ".";
  /// Client mobility knobs for the roaming studies; run_mobility_study
  /// forces `enabled` on, every other experiment leaves mobility off (so
  /// their renders stay byte-identical to pre-mobility builds).
  mobility::MobilityConfig mobility;
  /// Mesh backhaul knobs for the multi-hop studies; run_mesh_study forces
  /// a nonzero mesh fraction, every other experiment leaves mesh off (so
  /// their renders stay byte-identical to pre-mesh builds).
  mesh::MeshConfig mesh;
};

/// The paper's audited full fleet size (Table 2 total: 20,667 networks).
/// `--scale paper` presets and the wlmctl bounds check key off this.
[[nodiscard]] int paper_network_count();

// ---------------------------------------------------------------- Table 2

/// Renders the industry mix (generator calibration vs Table 2).
[[nodiscard]] std::string render_table2(const ScenarioScale& scale);

// ------------------------------------------------- Tables 3/5/6 (usage)

struct UsageRun {
  backend::UsageAggregator agg_2015;
  backend::UsageAggregator agg_2014;
  /// paper clients / simulated clients, used to scale byte totals to TB.
  double upscale_2015 = 1.0;
  double upscale_2014 = 1.0;
  std::uint64_t flows_classified = 0;
  std::uint64_t flows_misclassified = 0;
  double mean_report_bytes_per_ap = 0.0;
  double report_kbit_per_s = 0.0;  // the §2 "~1 kbit/s" overhead check
};

[[nodiscard]] UsageRun run_usage_study(const ScenarioScale& scale);
[[nodiscard]] std::string render_table3(const UsageRun& run);
[[nodiscard]] std::string render_table5(const UsageRun& run, std::size_t top_n = 40);
[[nodiscard]] std::string render_table6(const UsageRun& run);
[[nodiscard]] std::string render_wire_overhead(const UsageRun& run);

/// Full-cadence telemetry overhead (the §2 "~1 kbit/s per AP" claim): runs
/// a week of usage reports plus periodic interference/neighbor reports and
/// measures framed bytes through the tunnels.
struct WireOverheadRun {
  double bytes_per_ap_week = 0.0;
  double kbit_per_s = 0.0;
  double reports_per_ap = 0.0;
};
[[nodiscard]] WireOverheadRun run_wire_overhead_study(const ScenarioScale& scale);
[[nodiscard]] std::string render_wire_overhead_full(const WireOverheadRun& run);

// ----------------------------------------- Table 4 / Figure 1 (snapshots)

struct SnapshotRun {
  /// Measured capability fractions per epoch, indexed like Table 4's rows:
  /// {11g, 11n, 5GHz, 40MHz, 11ac, 2ss, 3ss, 4ss}.
  std::vector<double> caps_2014;
  std::vector<double> caps_2015;
  /// Signal-to-noise (dB above noise floor) samples by band, 2015 snapshot.
  std::vector<double> snr_24;
  std::vector<double> snr_5;
  std::size_t clients_24 = 0;
  std::size_t clients_5 = 0;
};

[[nodiscard]] SnapshotRun run_snapshot_study(const ScenarioScale& scale);
[[nodiscard]] std::string render_table4(const SnapshotRun& run);
[[nodiscard]] std::string render_fig1(const SnapshotRun& run);

// --------------------------------------- Table 7 / Figure 2 (neighbors)

struct NeighborRun {
  struct EpochStats {
    double networks_per_ap_24 = 0.0;
    double networks_per_ap_5 = 0.0;
    std::uint64_t total_24 = 0;
    std::uint64_t total_5 = 0;
    double hotspot_frac_24 = 0.0;
    double hotspot_frac_5 = 0.0;
    int ap_count = 0;
  };
  EpochStats now;        // Jan 2015
  EpochStats six_months; // Jul 2014
  /// Histogram of neighbor BSS observations by channel (Jan 2015).
  std::vector<std::pair<int, std::uint64_t>> by_channel_24;
  std::vector<std::pair<int, std::uint64_t>> by_channel_5;
};

[[nodiscard]] NeighborRun run_neighbor_study(const ScenarioScale& scale);
[[nodiscard]] std::string render_table7(const NeighborRun& run);
[[nodiscard]] std::string render_fig2(const NeighborRun& run);

// --------------------------------------------- Figures 3/4/5 (links)

struct LinkRun {
  std::vector<double> ratios_24_now;
  std::vector<double> ratios_24_before;
  std::vector<double> ratios_5_now;
  std::vector<double> ratios_5_before;
  /// Week-long series for two sample links per band (Figures 4/5).
  struct Series {
    std::vector<double> hours;
    std::vector<double> ratios;
  };
  std::vector<Series> series_24;
  std::vector<Series> series_5;
};

[[nodiscard]] LinkRun run_link_study(const ScenarioScale& scale);
[[nodiscard]] std::string render_fig3(const LinkRun& run);
[[nodiscard]] std::string render_fig4(const LinkRun& run);
[[nodiscard]] std::string render_fig5(const LinkRun& run);

// ------------------------------------- Figures 6/7/8/9/10 (utilization)

struct UtilizationRun {
  // MR16 serving-channel utilization (Figure 6).
  std::vector<double> mr16_util_24;
  std::vector<double> mr16_util_5;
  // MR18 all-channel scans: per (channel-observation) pairs.
  std::vector<double> scatter_util_24;   // Figure 7 y-values
  std::vector<double> scatter_count_24;  // Figure 7 x-values
  std::vector<double> scatter_util_5;    // Figure 8
  std::vector<double> scatter_count_5;
  double correlation_24 = 0.0;
  double correlation_5 = 0.0;
  // Day/night per-channel utilization (Figure 9).
  std::vector<double> day_24, night_24, day_5, night_5;
  // Decodable fraction of busy time (Figure 10).
  std::vector<double> decodable_24, decodable_5;
};

[[nodiscard]] UtilizationRun run_utilization_study(const ScenarioScale& scale);
[[nodiscard]] std::string render_fig6(const UtilizationRun& run);
[[nodiscard]] std::string render_fig7(const UtilizationRun& run);
[[nodiscard]] std::string render_fig8(const UtilizationRun& run);
[[nodiscard]] std::string render_fig9(const UtilizationRun& run);
[[nodiscard]] std::string render_fig10(const UtilizationRun& run);

// --------------------------------------------- mobility (roaming churn)

/// Backend-side roaming statistics from one mobility-enabled usage week.
/// Everything here is computed from the harvested store (the §2.3
/// aggregate-by-MAC path) plus the merged telemetry registry — never from
/// simulator internals, so the renders measure what the backend can see.
struct MobilityRun {
  /// Distinct-AP count per client, sorted by client MAC (deterministic
  /// regardless of hash-map iteration order).
  std::vector<int> ap_counts;
  std::size_t clients = 0;
  /// Clients whose resolved OS is mobile-class (phones/tablets).
  std::size_t mobile_clients = 0;
  /// Mobile-class clients the backend saw on exactly one AP all week —
  /// the paper's "sticky" population that never benefits from roaming.
  std::size_t sticky_mobile = 0;
  // Fleet wlm_mobility_* counters from the merged registry.
  std::uint64_t clients_walking = 0;
  std::uint64_t steps_active = 0;
  std::uint64_t roams = 0;
  std::uint64_t handoffs_armed = 0;
  std::uint64_t handoffs_aborted = 0;
  std::uint64_t band_switches = 0;
};

/// Runs one usage week with mobility forced on (scale.mobility supplies the
/// walk knobs) and aggregates roaming behavior from the backend store.
[[nodiscard]] MobilityRun run_mobility_study(const ScenarioScale& scale);
/// CDF of per-client roam counts (AP changes = distinct APs - 1).
[[nodiscard]] std::string render_roam_cdf(const MobilityRun& run);
/// Distribution of distinct APs visited per client over the week.
[[nodiscard]] std::string render_ap_visits(const MobilityRun& run);
/// Sticky-client report plus the fleet handoff counters.
[[nodiscard]] std::string render_sticky_clients(const MobilityRun& run);

// ------------------------------------------- mesh (multi-hop backhaul)

/// Delivery and delay vs hop count from one mesh-enabled usage week, the
/// ngwmn grid-study methodology: generation counts come from the merged
/// shard registries, delivery counts and relay-delay samples come from the
/// harvested backend store ONLY — the backend measures what arrived, the
/// shards attest what was sent, and the gap is the ledger's business.
struct MeshRun {
  /// Reports enqueued at each hop distance (index = hops; 0 = gateway- or
  /// wire-attached APs), from wlm_mesh_reports_by_hops_total.
  std::vector<std::uint64_t> generated_by_hops;
  /// Reports the backend store holds at each hop distance.
  std::vector<std::uint64_t> delivered_by_hops;
  /// Relay-delay samples (us) per hop distance, from delivered reports;
  /// index 0 stays empty (direct reports carry no relay delay).
  std::vector<std::vector<double>> relay_us_by_hops;
  /// WAN-less (mesh) APs across the fleet, from the wlm_mesh_aps gauges.
  std::uint64_t mesh_aps = 0;
  std::uint64_t total_aps = 0;
  // Fleet wlm_mesh_* counters from the merged registry.
  std::uint64_t relayed_reports = 0;
  std::uint64_t hops_total = 0;
  std::uint64_t relay_us_total = 0;
  std::uint64_t partition_lost = 0;
  /// Fleet conservation ledger (closes with lost_mesh_partition).
  fault::LossLedger ledger;
};

/// Runs one usage week with mesh backhaul forced on (scale.mesh supplies
/// the knobs; a zero fraction defaults to 0.40) and measures delivery and
/// delay per hop count from the backend store.
[[nodiscard]] MeshRun run_mesh_study(const ScenarioScale& scale);
/// Delivery-ratio table: generated vs delivered per hop count, plus the
/// partition losses that keep the ledger closed.
[[nodiscard]] std::string render_mesh_delivery(const MeshRun& run);
/// Relay-delay table per hop count (mean and percentiles).
[[nodiscard]] std::string render_mesh_delay(const MeshRun& run);

// ------------------------------------------------ Figure 11 (spectrum)

struct SpectrumRun {
  std::vector<double> avg_24_db;  // averaged PSD, 2.437 GHz scene
  std::vector<double> avg_5_db;   // 5.220 GHz scene
  double occupancy_24 = 0.0;
  double occupancy_5 = 0.0;
  std::vector<std::string> waterfall_24;  // rendered rows
  std::vector<std::string> waterfall_5;
};

[[nodiscard]] SpectrumRun run_spectrum_study(std::uint64_t seed);
[[nodiscard]] std::string render_fig11(const SpectrumRun& run);

// ----------------------------------------------------------- utilities

/// "p50=25.3% p90=50.1%" helper used across renders.
[[nodiscard]] std::string percentile_summary(const std::vector<double>& values,
                                             bool as_percent);

}  // namespace wlm::analysis

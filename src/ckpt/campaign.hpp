// Whole-campaign checkpoint/restore on top of the fleet runtime.
//
// Strategy: reconstruct-then-overlay. A FleetRunner's construction is fully
// deterministic from its WorldConfig (fleet layout, clients, links, fault
// plans — all substream-seeded), so a checkpoint stores the config plus
// only the *mutable* campaign state: RNG substream positions, tunnel
// queues and counters, poller accounting, shard stores, telemetry
// registries and flight recorders, fault-schedule cursors, and the merged
// fleet-level store/metrics/trace. Restore rebuilds the world from the
// config (at whatever --jobs the new process wants — parallelism is not
// simulated state) and overlays the saved state on top.
//
// Checkpoints cut at campaign phase boundaries, where every shard is
// quiescent and all state is owned by the orchestrating thread. Because
// shard campaigns are deterministic for any worker-pool size, the
// checkpoint bytes themselves are byte-identical across --jobs, and a
// resumed campaign's outputs are byte-identical to an uninterrupted run's
// (tests/ckpt/resume_e2e_test.cpp pins both, through a real kill).
//
// Restore is all-or-nothing: any failure returns a typed Error and no
// runner. The last overlay step cross-checks the rebuilt world's loss
// ledger against the snapshot stored at save time — a checkpoint from a
// different binary, seed, or fault scenario fails closed (kBadConfig)
// instead of resuming a subtly different campaign.
//
// What is deliberately NOT captured: wall-clock profiler data (real time
// is not simulated state) and the thread count.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "ckpt/container.hpp"
#include "sim/fleet_runner.hpp"

namespace wlm::ckpt {

/// Where in the campaign script the checkpoint was cut. The resuming
/// driver replays only the phases NOT in `phases_done`.
struct CampaignProgress {
  /// Phase names completed before the cut, in execution order (the same
  /// names FleetRunner's profiler uses: usage_week, snapshot, mr16, ...).
  std::vector<std::string> phases_done;
  /// Free-form label for humans (wlmctl prints it on resume).
  std::string label;
  /// Simulated hours covered (mirrors FleetRunner::campaign_sim_hours();
  /// filled from the runner at save time, applied back at restore).
  double sim_hours = 0.0;
};

/// Serializes the runner's full mutable state. Must be called between
/// campaign phases (shards quiescent); `progress.sim_hours` is overwritten
/// from the runner.
[[nodiscard]] std::vector<std::uint8_t> save_campaign(sim::FleetRunner& runner,
                                                      const CampaignProgress& progress);

/// save_campaign() straight to a file through write_file_atomic().
[[nodiscard]] Error save_campaign_file(const std::string& path, sim::FleetRunner& runner,
                                       const CampaignProgress& progress);

struct RestoredCampaign {
  std::unique_ptr<sim::FleetRunner> runner;
  CampaignProgress progress;
};

/// Rebuilds a FleetRunner from checkpoint bytes with `threads` workers and
/// overlays the saved state. On any failure returns a typed Error and
/// leaves `out` untouched — never a partially restored runner.
[[nodiscard]] Error restore_campaign(std::span<const std::uint8_t> bytes, int threads,
                                     RestoredCampaign& out);

[[nodiscard]] Error restore_campaign_file(const std::string& path, int threads,
                                          RestoredCampaign& out);

}  // namespace wlm::ckpt

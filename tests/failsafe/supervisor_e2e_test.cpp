// End-to-end supervision scenarios against real fleet campaigns: a killed
// shard degrades the run gracefully (quarantine + accounted loss + byte-
// identical survivors), a transient failure recovers byte-identically via
// checkpoint-based retry, the watchdog converts injected stalls into
// supervised failures, and the degraded-run manifest survives a checkpoint
// round trip.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "ckpt/campaign.hpp"
#include "failsafe/failpoint.hpp"
#include "failsafe/supervisor.hpp"
#include "sim/fleet_runner.hpp"
#include "support/report_store.hpp"
#include "telemetry/export.hpp"

namespace wlm::failsafe {
namespace {

struct ScopedDisarm {
  ScopedDisarm() { failpoints().disarm_all(); }
  ~ScopedDisarm() { failpoints().disarm_all(); }
};

sim::WorldConfig scenario(int jobs, std::uint64_t retries,
                          double deadline_hours = 0.0) {
  sim::WorldConfig config;
  config.fleet.epoch = deploy::Epoch::kJan2015;
  config.fleet.network_count = 6;
  config.fleet.seed = 11;
  config.seed = 12;
  config.threads = jobs;
  config.supervision.max_shard_retries = retries;
  config.supervision.shard_deadline_hours = deadline_hours;
  config.supervision.capture_checkpoints = true;
  return config;
}

void run_campaign(sim::FleetRunner& runner) {
  runner.run_usage_week();
  runner.run_mr16_interference(SimTime::epoch() + Duration::hours(14));
  runner.run_link_windows(SimTime::epoch() + Duration::hours(14));
  runner.harvest(sim::HarvestMode::kFinal);
}

/// Network id of shard `index` in the scenario fleet (stable across jobs:
/// shard order is fleet order).
std::uint64_t network_of_shard(std::size_t index) {
  const sim::FleetRunner probe(scenario(1, 0));
  return probe.shards().at(index)->id().value();
}

/// AP ids belonging to `network` in the scenario fleet.
std::vector<ApId> aps_of_network(std::uint64_t network) {
  sim::FleetRunner probe(scenario(1, 0));
  std::vector<ApId> ids;
  for (const auto& ap : probe.aps()) {
    if (ap.network().value() == network) ids.push_back(ap.id());
  }
  return ids;
}

/// Drops every metric line owned by the supervision layer; a recovered run
/// is byte-identical to a clean one *modulo* these (recovery is deliberately
/// visible in telemetry).
std::string strip_supervisor_lines(const std::string& prometheus) {
  std::istringstream in(prometheus);
  std::string out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("wlm_supervisor_") == std::string::npos) {
      out += line;
      out += '\n';
    }
  }
  return out;
}

TEST(SupervisorE2E, KillOneShardQuarantinesAndKeepsSurvivorsByteIdentical) {
  ScopedDisarm guard;
  const std::uint64_t victim = network_of_shard(2);
  const auto victim_aps = aps_of_network(victim);
  ASSERT_FALSE(victim_aps.empty());

  // Without a ceiling the poll fails in the harvest drain; under one it
  // fails in the usage week's own drain, inside the shard's phase task.
  for (const std::uint64_t ceiling_mb : {0, 1}) {
    SCOPED_TRACE(testing::Message() << "mem ceiling " << ceiling_mb << " MiB");
    const auto config = [ceiling_mb](int jobs) {
      sim::WorldConfig c = scenario(jobs, 1);
      c.mem_ceiling_mb = ceiling_mb;
      c.spill_dir = testing::TempDir() + "kill_one_shard_j" + std::to_string(jobs);
      return c;
    };
    failpoints().disarm_all();
    sim::WorldConfig clean_config = config(1);
    clean_config.spill_dir += "_clean";
    sim::FleetRunner clean(clean_config);
    run_campaign(clean);
    ASSERT_FALSE(clean.supervisor().degraded());
    const backend::ReportStore clean_store = test_support::to_store(clean.reports());

    std::vector<std::string> snapshots;
    for (const int jobs : {1, 2, 8}) {
      failpoints().disarm_all();
      // The poll site fires on every drain cycle, so every retry fails
      // too: this shard cannot be saved, only quarantined.
      ASSERT_TRUE(failpoints().arm_list("site=poller.poll,net=" +
                                        std::to_string(victim) + ",action=throw"));
      sim::FleetRunner runner(config(jobs));
      run_campaign(runner);

      EXPECT_TRUE(runner.supervisor().degraded());
      EXPECT_EQ(runner.supervisor().quarantined_count(), 1u);
      EXPECT_EQ(runner.supervisor().manifest().quarantined_networks(),
                std::vector<std::uint64_t>{victim});
      ASSERT_EQ(runner.supervisor().manifest().incidents.size(), 1u);
      EXPECT_EQ(runner.supervisor().manifest().incidents[0].phase,
                ceiling_mb > 0 ? "usage_week" : "harvest_drain");

      // The quarantined shard's work is accounted, not silently dropped:
      // its generated reports moved to lost_supervision and the fleet
      // invariant still closes. Under the ceiling the shard failed in the
      // week itself and was parked at its pre-week snapshot, so it holds
      // no generated report to account for.
      const auto ledger = runner.loss_ledger();
      EXPECT_TRUE(ledger.conserved()) << ledger.render();
      if (ceiling_mb == 0) {
        EXPECT_GT(ledger.lost_supervision, 0u);
      } else {
        EXPECT_EQ(runner.supervisor().manifest().incidents[0].ledger.generated, 0u);
      }

      // No report from the quarantined network reached the fleet store...
      const backend::ReportStore store = test_support::to_store(runner.reports());
      for (const ApId ap : victim_aps) {
        EXPECT_TRUE(store.reports_for(ap).empty());
      }
      // ...and every surviving AP's reports are byte-identical to the
      // clean run's (shard confinement means a neighbor's death is
      // invisible).
      for (const auto& ap : clean.aps()) {
        if (ap.network().value() == victim) continue;
        EXPECT_EQ(store.reports_for(ap.id()), clean_store.reports_for(ap.id()));
      }
      snapshots.push_back(telemetry::to_prometheus(runner.metrics()));
    }
    // The whole degraded telemetry snapshot is a deterministic artifact.
    EXPECT_EQ(snapshots[0], snapshots[1]);
    EXPECT_EQ(snapshots[0], snapshots[2]);
  }
}

TEST(SupervisorE2E, TransientFailureRecoversByteIdentically) {
  ScopedDisarm guard;
  const std::uint64_t victim = network_of_shard(1);

  sim::FleetRunner clean(scenario(2, 2));
  run_campaign(clean);

  failpoints().disarm_all();
  ASSERT_TRUE(failpoints().arm_list("site=shard.step,net=" + std::to_string(victim) +
                                    ",action=throw,times=1"));
  sim::FleetRunner runner(scenario(2, 2));
  run_campaign(runner);

  // One incident, recovered on the first retry — not a degraded run.
  EXPECT_FALSE(runner.supervisor().degraded());
  EXPECT_EQ(runner.supervisor().quarantined_count(), 0u);
  ASSERT_EQ(runner.supervisor().manifest().incidents.size(), 1u);
  const ShardIncident& incident = runner.supervisor().manifest().incidents[0];
  EXPECT_EQ(incident.network, victim);
  EXPECT_EQ(incident.phase, "usage_week");
  EXPECT_EQ(incident.outcome, IncidentOutcome::kRecovered);
  EXPECT_EQ(incident.failures, 1u);
  EXPECT_EQ(incident.retries, 1u);
  EXPECT_GT(incident.backoff_hours, 0.0);

  // The recovered campaign's simulated output is byte-identical to the
  // unfaulted run's: same reports for every AP, same ledger, and the same
  // metrics once the (deliberately visible) supervisor lines are stripped.
  const backend::ReportStore store = test_support::to_store(runner.reports());
  const backend::ReportStore clean_store = test_support::to_store(clean.reports());
  EXPECT_EQ(store.report_count(), clean_store.report_count());
  for (const auto& ap : clean.aps()) {
    EXPECT_EQ(store.reports_for(ap.id()), clean_store.reports_for(ap.id()));
  }
  EXPECT_EQ(runner.loss_ledger().render(), clean.loss_ledger().render());
  EXPECT_EQ(strip_supervisor_lines(telemetry::to_prometheus(runner.metrics())),
            telemetry::to_prometheus(clean.metrics()));
}

TEST(SupervisorE2E, WatchdogConvertsStallIntoSupervisedRecovery) {
  ScopedDisarm guard;
  const std::uint64_t victim = network_of_shard(0);

  sim::FleetRunner clean(scenario(1, 2, /*deadline_hours=*/5.0));
  run_campaign(clean);

  failpoints().disarm_all();
  // Two 3-hour stalls blow the 5-hour deadline mid-phase; `times=2` means
  // the retry attempt runs stall-free and recovers.
  ASSERT_TRUE(failpoints().arm_list("site=shard.step,net=" + std::to_string(victim) +
                                    ",action=delay,hours=3,times=2"));
  sim::FleetRunner runner(scenario(1, 2, /*deadline_hours=*/5.0));
  run_campaign(runner);

  EXPECT_FALSE(runner.supervisor().degraded());
  ASSERT_EQ(runner.supervisor().manifest().incidents.size(), 1u);
  const ShardIncident& incident = runner.supervisor().manifest().incidents[0];
  EXPECT_EQ(incident.outcome, IncidentOutcome::kRecovered);
  EXPECT_NE(incident.error.find("watchdog"), std::string::npos) << incident.error;
  const backend::ReportStore store = test_support::to_store(runner.reports());
  const backend::ReportStore clean_store = test_support::to_store(clean.reports());
  for (const auto& ap : clean.aps()) {
    EXPECT_EQ(store.reports_for(ap.id()), clean_store.reports_for(ap.id()));
  }
}

TEST(SupervisorE2E, HarvestMergeFailureQuarantinesWithoutMerging) {
  ScopedDisarm guard;
  const std::uint64_t victim = network_of_shard(3);
  const auto victim_aps = aps_of_network(victim);

  ASSERT_TRUE(failpoints().arm_list("site=harvest.merge,net=" + std::to_string(victim) +
                                    ",action=error"));
  sim::FleetRunner runner(scenario(2, 1));
  run_campaign(runner);

  // The shard simulated and drained fine; only its merge step kept failing.
  EXPECT_TRUE(runner.supervisor().degraded());
  ASSERT_EQ(runner.supervisor().manifest().incidents.size(), 1u);
  const ShardIncident& incident = runner.supervisor().manifest().incidents[0];
  EXPECT_EQ(incident.phase, "harvest.merge");
  EXPECT_EQ(incident.outcome, IncidentOutcome::kQuarantined);
  const backend::ReportStore store = test_support::to_store(runner.reports());
  for (const ApId ap : victim_aps) {
    EXPECT_TRUE(store.reports_for(ap).empty());
  }
  const auto ledger = runner.loss_ledger();
  EXPECT_TRUE(ledger.conserved()) << ledger.render();
  // Its delivered work was struck from `delivered` into lost_supervision.
  EXPECT_GT(ledger.lost_supervision, 0u);
}

TEST(SupervisorE2E, ManifestSurvivesCheckpointRoundtrip) {
  ScopedDisarm guard;
  const std::uint64_t victim = network_of_shard(2);
  ASSERT_TRUE(failpoints().arm_list("site=poller.poll,net=" + std::to_string(victim) +
                                    ",action=throw"));
  sim::FleetRunner runner(scenario(1, 1));
  run_campaign(runner);
  ASSERT_TRUE(runner.supervisor().degraded());
  failpoints().disarm_all();

  ckpt::CampaignProgress progress;
  progress.label = "degraded";
  progress.phases_done = {"usage_week", "mr16", "link_windows", "harvest"};
  const auto bytes = ckpt::save_campaign(runner, progress);

  ckpt::RestoredCampaign restored;
  const auto err = ckpt::restore_campaign(bytes, 2, restored);
  ASSERT_FALSE(err) << err.detail;
  ASSERT_NE(restored.runner, nullptr);
  EXPECT_EQ(restored.runner->supervisor().manifest(), runner.supervisor().manifest());
  EXPECT_EQ(restored.runner->supervisor().quarantined_count(), 1u);
  EXPECT_TRUE(restored.runner->supervisor().degraded());
  // The quarantine set was rebuilt from the manifest, so the restored
  // fleet's ledger still reattributes the victim's work.
  EXPECT_EQ(restored.runner->loss_ledger().render(), runner.loss_ledger().render());
}

TEST(SupervisorE2E, CheckpointWriteFailpointIsTypedIoError) {
  ScopedDisarm guard;
  sim::FleetRunner runner(scenario(1, 0));
  runner.run_usage_week();
  ckpt::CampaignProgress progress;
  progress.phases_done = {"usage_week"};

  const std::string path = ::testing::TempDir() + "wlm_failsafe_ckpt_fail.bin";
  ASSERT_TRUE(failpoints().arm_list("site=ckpt.save.write,action=error,times=1"));
  const auto err = ckpt::save_campaign_file(path, runner, progress);
  EXPECT_EQ(err.status, ckpt::Status::kIo);
  EXPECT_NE(err.detail.find("failpoint"), std::string::npos) << err.detail;

  // The failpoint exhausted after one firing; the very next save lands.
  const auto ok = ckpt::save_campaign_file(path, runner, progress);
  EXPECT_FALSE(ok) << ok.detail;
  std::remove(path.c_str());
}

TEST(SupervisorE2E, ResumeFromMissingPathIsTypedIoError) {
  ckpt::RestoredCampaign restored;
  const auto err = ckpt::restore_campaign_file(
      ::testing::TempDir() + "wlm_no_such_checkpoint.bin", 1, restored);
  ASSERT_TRUE(err);
  EXPECT_EQ(err.status, ckpt::Status::kIo);
  EXPECT_NE(err.detail.find("cannot open"), std::string::npos) << err.detail;
  EXPECT_EQ(restored.runner, nullptr);
}

}  // namespace
}  // namespace wlm::failsafe

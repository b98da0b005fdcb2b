// Every HealthIssue class must be producible by a fault scenario: the
// monitor exists to diagnose exactly the §6.1 failures the injector models,
// so each signal gets a scenario that provably raises it.
#include <gtest/gtest.h>

#include <string>

#include "backend/health.hpp"
#include "sim/fleet_runner.hpp"
#include "support/report_store.hpp"

namespace wlm::sim {
namespace {

WorldConfig scenario(const fault::FaultSpec& faults, int networks = 8,
                     std::uint64_t seed = 99) {
  WorldConfig cfg;
  cfg.fleet.epoch = deploy::Epoch::kJan2015;
  cfg.fleet.network_count = networks;
  cfg.fleet.seed = seed;
  cfg.seed = seed + 1;
  cfg.faults = faults;
  return cfg;
}

std::vector<backend::HealthFinding> triage(FleetRunner& runner) {
  backend::HealthPolicy policy;
  policy.expected_interval = Duration::days(1);
  const backend::HealthMonitor monitor(policy);
  auto findings =
      monitor.analyze(runner.reports(), SimTime::epoch() + Duration::days(7));
  for (const auto& ap : runner.aps()) {
    const auto t = monitor.analyze_tunnel(ap.tunnel());
    findings.insert(findings.end(), t.begin(), t.end());
  }
  return findings;
}

bool has_issue(const std::vector<backend::HealthFinding>& findings,
               backend::HealthIssue issue) {
  for (const auto& f : findings) {
    if (f.issue == issue) return true;
  }
  return false;
}

TEST(HealthScenarios, TelemetryShedFromTinyQueueUnderFlap) {
  fault::FaultSpec faults;
  faults.flap_fraction = 1.0;
  faults.tunnel_queue_limit = 2;  // a 7-report backlog cannot fit
  FleetRunner runner(scenario(faults));
  runner.run_usage_week(7);
  runner.harvest(HarvestMode::kFinal);
  EXPECT_TRUE(has_issue(triage(runner), backend::HealthIssue::kTelemetryShed));
  EXPECT_GT(runner.loss_ledger().shed, 0u);
}

TEST(HealthScenarios, WanFlappingFromDenseOutageProcess) {
  fault::FaultSpec faults;
  faults.outage_rate_per_week = 12.0;
  faults.outage_mean_hours = 2.0;
  FleetRunner runner(scenario(faults));
  runner.run_usage_week(7);
  runner.harvest(HarvestMode::kFinal);
  EXPECT_TRUE(has_issue(triage(runner), backend::HealthIssue::kWanFlapping));
}

TEST(HealthScenarios, OfflineFromOutageOpenPastWeekEnd) {
  fault::FaultSpec faults;
  faults.outage_rate_per_week = 2.0;
  faults.outage_mean_hours = 400.0;
  FleetRunner runner(scenario(faults));
  runner.run_usage_week(7);
  // Week-end view: APs inside an open outage have not reported for days.
  runner.harvest(HarvestMode::kWeekEnd);
  EXPECT_TRUE(has_issue(triage(runner), backend::HealthIssue::kOffline));
}

TEST(HealthScenarios, ReportingGapsFromRebootDuringOutage) {
  // An outage queues reports; a reboot inside it flushes the backlog; the
  // WAN comes back and reporting resumes — leaving a multi-day hole in the
  // AP's timeline.
  fault::FaultSpec faults;
  faults.outage_rate_per_week = 3.0;
  faults.outage_mean_hours = 30.0;
  faults.reboot_rate_per_week = 6.0;
  FleetRunner runner(scenario(faults));
  runner.run_usage_week(7);
  runner.harvest(HarvestMode::kFinal);
  EXPECT_TRUE(has_issue(triage(runner), backend::HealthIssue::kReportingGaps));
}

TEST(HealthScenarios, NeighborPressureFromSkyscraperAps) {
  fault::FaultSpec faults;
  faults.skyscraper_fraction = 0.3;
  faults.skyscraper_neighbors = 600;  // threshold is 400
  FleetRunner runner(scenario(faults));
  runner.run_mr16_interference(SimTime::epoch() + Duration::days(3));
  runner.harvest(HarvestMode::kFinal);
  EXPECT_TRUE(has_issue(triage(runner), backend::HealthIssue::kNeighborPressure));
}

TEST(HealthScenarios, CleanFleetHasNoFindings) {
  FleetRunner runner(scenario(fault::FaultSpec{}));
  runner.run_usage_week(7);
  runner.harvest(HarvestMode::kFinal);
  EXPECT_TRUE(triage(runner).empty());
}

// The monitor reads the vault the way wlmctl health does: week-end harvest,
// decoded on as many threads as the campaign ran on, and spilled under a
// ceiling. Its findings must not depend on any of that. The ceiling run
// drains at every phase boundary, so it is compared only with itself.
std::string vault_findings(int threads, std::uint64_t ceiling_mb, const std::string& spill_dir,
                           std::string* row_store_findings = nullptr) {
  fault::FaultSpec faults;
  faults.outage_rate_per_week = 2.0;
  faults.outage_mean_hours = 60.0;
  faults.reboot_rate_per_week = 1.0;
  faults.corrupt_probability = 0.01;
  faults.skyscraper_fraction = 0.2;
  faults.skyscraper_neighbors = 600;
  WorldConfig cfg = scenario(faults, 12, 11);
  cfg.threads = threads;
  cfg.mem_ceiling_mb = ceiling_mb;
  cfg.spill_dir = spill_dir;
  FleetRunner runner(cfg);
  runner.run_usage_week(7);
  runner.run_mr16_interference(SimTime::epoch() + Duration::days(3));
  runner.harvest(HarvestMode::kWeekEnd);
  if (ceiling_mb > 0) {
    EXPECT_GT(runner.fleet_tsdb().stats().segments_spilled, 0u) << "the ceiling never pressed";
  }

  backend::HealthPolicy policy;
  policy.expected_interval = Duration::days(1);
  const backend::HealthMonitor monitor(policy);
  const SimTime now = SimTime::epoch() + Duration::days(7);
  const auto findings = monitor.analyze(runner.reports(), now);
  EXPECT_FALSE(runner.fleet_tsdb().last_error()) << runner.fleet_tsdb().last_error().detail;
  EXPECT_TRUE(has_issue(findings, backend::HealthIssue::kOffline));
  EXPECT_TRUE(has_issue(findings, backend::HealthIssue::kNeighborPressure));
  if (row_store_findings != nullptr) {
    *row_store_findings = backend::HealthMonitor::render(
        monitor.analyze(test_support::to_store(runner.reports()), now));
  }
  return backend::HealthMonitor::render(findings);
}

TEST(HealthScenarios, VaultFindingsMatchAcrossJobsAndRowStore) {
  std::string rows;
  const std::string serial = vault_findings(1, 0, ".", &rows);
  EXPECT_EQ(serial, rows);
  EXPECT_EQ(vault_findings(4, 0, "."), serial);

  const std::string spill_dir = testing::TempDir() + "health_vault_spill";
  std::string spilled_rows;
  const std::string spilled = vault_findings(1, 1, spill_dir, &spilled_rows);
  EXPECT_EQ(spilled, spilled_rows);
  EXPECT_EQ(vault_findings(4, 1, spill_dir + "4"), spilled);
}

}  // namespace
}  // namespace wlm::sim

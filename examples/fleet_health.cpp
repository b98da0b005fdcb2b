// Fleet health triage: runs a week of telemetry under a mixed fault scenario
// — WAN outages, a couple of reboot processes, wire corruption, and a
// "skyscraper" outlier inflating its scan tables — then lets the backend's
// health monitor find the damage from the reports and tunnel statistics
// alone: the paper's §6.1 operational workflow.
#include <algorithm>
#include <cstdio>
#include <map>

#include "backend/health.hpp"
#include "sim/fleet_runner.hpp"

int main() {
  using namespace wlm;

  sim::WorldConfig config;
  config.fleet.epoch = deploy::Epoch::kJan2015;
  config.fleet.network_count = 25;
  config.seed = 2026;
  // The fault scenario: a flaky WAN under some sites, occasional power
  // events, a lossy long-haul link, and a few Manhattan-skyscraper APs whose
  // neighbor tables grow until the box OOM-reboots (§6.1).
  config.faults.flap_fraction = 0.1;
  config.faults.outage_rate_per_week = 1.0;
  config.faults.outage_mean_hours = 30.0;
  config.faults.reboot_rate_per_week = 0.5;
  config.faults.corrupt_probability = 0.005;
  config.faults.skyscraper_fraction = 0.05;
  config.faults.skyscraper_neighbors = 600;
  config.faults.oom_neighbor_threshold = 400;
  sim::FleetRunner runner(config);

  runner.run_usage_week(7);
  runner.run_mr16_interference(SimTime::epoch() + Duration::days(3));
  // Week-end harvest: APs still inside an open outage stay offline, which is
  // exactly what the dashboard should be alerting on.
  runner.harvest(sim::HarvestMode::kWeekEnd);

  // Find the AP with the largest neighbor table, then run the health
  // analysis.
  std::uint32_t outlier_ap = 0;
  std::size_t outlier_neighbors = 0;
  runner.reports().for_each([&](const wire::ApReport& report) {
    if (report.neighbors.size() > outlier_neighbors) {
      outlier_neighbors = report.neighbors.size();
      outlier_ap = report.ap_id;
    }
  });

  backend::HealthPolicy policy;
  policy.expected_interval = Duration::days(1);
  const backend::HealthMonitor monitor(policy);
  auto findings = monitor.analyze(runner.reports(), SimTime::epoch() + Duration::days(7));
  for (const auto& ap : runner.aps()) {
    const auto tunnel_findings = monitor.analyze_tunnel(ap.tunnel());
    findings.insert(findings.end(), tunnel_findings.begin(), tunnel_findings.end());
  }
  std::fputs(backend::HealthMonitor::render(findings).c_str(), stdout);

  // End-to-end loss accounting: every generated report lands in exactly one
  // bucket, so the operator can tell shed from lost from still-queued.
  std::printf("\n%s\n", runner.loss_ledger().render().c_str());

  // The worst offender's dashboard panel, read straight from the stored
  // reports: its largest neighbor table on each day it reported.
  std::map<std::int64_t, std::size_t> daily_max;
  runner.reports().for_each([&](const wire::ApReport& report) {
    if (report.ap_id != outlier_ap) return;
    auto& peak = daily_max[report.timestamp_us / Duration::days(1).as_micros()];
    peak = std::max(peak, report.neighbors.size());
  });
  std::printf("\nAP%u daily max audible neighbors:", outlier_ap);
  for (const auto& [day, peak] : daily_max) std::printf(" %zu", peak);
  std::printf("\n");
  return 0;
}

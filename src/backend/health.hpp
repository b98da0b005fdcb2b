// Fleet health monitoring from telemetry.
//
// Paper §6.1: "it [is] important to measure and instrument the system at
// large scale and make it possible to examine the system under operation".
// The Manhattan-skyscraper OOM bug was diagnosed exactly this way — APs
// reporting "very large numbers of nearby access points" before rebooting.
// This monitor walks the report store and surfaces the same signals:
// reporting gaps, WAN flapping, neighbor-table pressure, and shed telemetry.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "backend/store.hpp"
#include "backend/tunnel.hpp"

namespace wlm::backend {

enum class HealthIssue : std::uint8_t {
  kOffline,            // no report for several expected intervals
  kReportingGaps,      // intermittent reporting (flaky WAN / power)
  kNeighborPressure,   // neighbor table far beyond typical: OOM risk (§6.1)
  kTelemetryShed,      // the bounded tunnel queue dropped frames
  kWanFlapping,        // repeated tunnel disconnects
};

[[nodiscard]] const char* health_issue_name(HealthIssue issue);

struct HealthFinding {
  ApId ap;
  HealthIssue issue = HealthIssue::kOffline;
  std::string detail;
};

struct HealthPolicy {
  /// Expected report cadence; gaps beyond `gap_tolerance` intervals flag.
  Duration expected_interval = Duration::hours(24);
  double gap_tolerance = 2.5;
  /// Neighbor entries per report beyond which an AP is at memory risk.
  std::size_t neighbor_pressure_threshold = 400;
  std::uint64_t max_disconnects = 5;
};

class HealthMonitor {
 public:
  explicit HealthMonitor(HealthPolicy policy = HealthPolicy{}) : policy_(policy) {}

  /// Analyzes every AP's reports in the store as of `now`. Reads the
  /// ReportSource stream once, folding each AP's contiguous run of reports,
  /// so row and columnar stores feed it interchangeably.
  [[nodiscard]] std::vector<HealthFinding> analyze(const ReportSource& store,
                                                   SimTime now) const;

  /// Tunnel-level signals (queue drops, disconnect counts); the store has
  /// no visibility into what never arrived.
  [[nodiscard]] std::vector<HealthFinding> analyze_tunnel(const Tunnel& tunnel) const;

  /// Renders findings as a human-readable report, most severe first.
  [[nodiscard]] static std::string render(const std::vector<HealthFinding>& findings);

 private:
  HealthPolicy policy_;
};

}  // namespace wlm::backend

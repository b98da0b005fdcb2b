#include "backend/health.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

namespace wlm::backend {

const char* health_issue_name(HealthIssue issue) {
  switch (issue) {
    case HealthIssue::kOffline:
      return "offline";
    case HealthIssue::kReportingGaps:
      return "reporting-gaps";
    case HealthIssue::kNeighborPressure:
      return "neighbor-table-pressure";
    case HealthIssue::kTelemetryShed:
      return "telemetry-shed";
    case HealthIssue::kWanFlapping:
      return "wan-flapping";
  }
  return "?";
}

std::vector<HealthFinding> HealthMonitor::analyze(const ReportSource& store,
                                                  SimTime now) const {
  std::vector<HealthFinding> findings;
  const double interval_us = static_cast<double>(policy_.expected_interval.as_micros());
  // One AP's report timestamps and its largest neighbor table, folded from
  // the stream. The ReportSource contract keeps an AP's reports contiguous,
  // so an AP is complete when the next one's first report arrives.
  ApId ap;
  std::vector<std::int64_t> times;
  std::size_t max_neighbors = 0;
  const auto judge_ap = [&] {
    if (times.empty()) return;
    // Reports arrive in poll order; evaluate by timestamp.
    std::sort(times.begin(), times.end());

    const double silence = static_cast<double>(now.as_micros() - times.back());
    if (silence > policy_.gap_tolerance * interval_us) {
      char buf[96];
      std::snprintf(buf, sizeof buf, "no report for %.1f expected intervals",
                    silence / interval_us);
      findings.push_back(HealthFinding{ap, HealthIssue::kOffline, buf});
    }

    double worst_gap = 0.0;
    for (std::size_t i = 1; i < times.size(); ++i) {
      worst_gap = std::max(worst_gap, static_cast<double>(times[i] - times[i - 1]));
    }
    if (times.size() > 1 && worst_gap > policy_.gap_tolerance * interval_us) {
      char buf[96];
      std::snprintf(buf, sizeof buf, "worst reporting gap %.1fx the cadence",
                    worst_gap / interval_us);
      findings.push_back(HealthFinding{ap, HealthIssue::kReportingGaps, buf});
    }

    if (max_neighbors > policy_.neighbor_pressure_threshold) {
      char buf[112];
      std::snprintf(buf, sizeof buf,
                    "%zu neighbor entries in one report (threshold %zu): "
                    "skyscraper/OOM risk",
                    max_neighbors, policy_.neighbor_pressure_threshold);
      findings.push_back(HealthFinding{ap, HealthIssue::kNeighborPressure, buf});
    }
    times.clear();
    max_neighbors = 0;
  };
  store.for_each([&](const wire::ApReport& r) {
    if (r.ap_id != ap.value()) {
      judge_ap();
      ap = ApId{r.ap_id};
    }
    times.push_back(r.timestamp_us);
    max_neighbors = std::max(max_neighbors, r.neighbors.size());
  });
  judge_ap();
  return findings;
}

std::vector<HealthFinding> HealthMonitor::analyze_tunnel(const Tunnel& tunnel) const {
  std::vector<HealthFinding> findings;
  const auto& stats = tunnel.stats();
  if (stats.frames_dropped > 0) {
    char buf[96];
    std::snprintf(buf, sizeof buf, "%llu telemetry frames shed at the device queue",
                  static_cast<unsigned long long>(stats.frames_dropped));
    findings.push_back(HealthFinding{tunnel.ap(), HealthIssue::kTelemetryShed, buf});
  }
  if (stats.disconnects > policy_.max_disconnects) {
    char buf[96];
    std::snprintf(buf, sizeof buf, "%llu WAN disconnects",
                  static_cast<unsigned long long>(stats.disconnects));
    findings.push_back(HealthFinding{tunnel.ap(), HealthIssue::kWanFlapping, buf});
  }
  return findings;
}

std::string HealthMonitor::render(const std::vector<HealthFinding>& findings) {
  if (findings.empty()) return "fleet healthy: no findings\n";
  std::ostringstream out;
  out << findings.size() << " finding(s):\n";
  for (const auto& f : findings) {
    out << "  AP" << f.ap.value() << " [" << health_issue_name(f.issue) << "] " << f.detail
        << "\n";
  }
  return out.str();
}

}  // namespace wlm::backend

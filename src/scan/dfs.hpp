// Dynamic Frequency Selection (paper §4.1: "the UNII-2 and UNII-3 bands
// require the use of a DFS protocol where access points first check for the
// presence of a radar signal and change channels automatically if one
// exists or is detected during operation").
//
// DfsMonitor models the regulatory state machine per channel: a radar
// detection forces evacuation, and the channel enters a Non-Occupancy
// Period. The AutoChannelAgent composes this with the channel planner: it
// is why fleets gravitate to the DFS-free UNII-1/UNII-3 bands (Figure 2).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "core/rng.hpp"
#include "core/time.hpp"
#include "scan/channel_planner.hpp"

namespace wlm::scan {

struct DfsPolicy {
  /// Probability a radar (weather, airport) is detected on a DFS channel
  /// per occupied hour. Coastal/airport sites run far hotter than inland.
  double radar_prob_per_hour = 0.01;
  /// Non-Occupancy Period after a detection.
  Duration non_occupancy = Duration::minutes(30);
};

class DfsMonitor {
 public:
  explicit DfsMonitor(DfsPolicy policy = DfsPolicy{}) : policy_(policy) {}

  /// True when the channel may carry traffic at `t` (non-DFS channels
  /// always may; DFS channels may not during their non-occupancy period).
  [[nodiscard]] bool is_available(const phy::Channel& channel, SimTime t) const;

  /// Simulates occupancy of `channel` for `dwell`; returns the radar-
  /// detection instant if one fires. Detection marks the channel occupied-
  /// prohibited until t + non_occupancy.
  [[nodiscard]] std::optional<SimTime> occupy(const phy::Channel& channel, SimTime from,
                                              Duration dwell, Rng& rng);

  [[nodiscard]] std::uint64_t detections() const { return detections_; }

 private:
  DfsPolicy policy_;
  std::map<int, SimTime> blocked_until_;
  std::uint64_t detections_ = 0;
};

/// One AP's 5 GHz auto-channel state machine: plans by utilization,
/// respects DFS availability, and evacuates on radar.
class AutoChannelAgent {
 public:
  AutoChannelAgent(phy::Channel initial, PlannerPolicy planner, DfsPolicy dfs);

  [[nodiscard]] const phy::Channel& current() const { return current_; }
  [[nodiscard]] std::uint64_t switches() const { return switches_; }
  [[nodiscard]] std::uint64_t radar_evacuations() const { return radar_evacuations_; }

  /// Advances one interval: occupies the current channel (radar may fire),
  /// then re-plans from the latest scan results. Returns true on a switch.
  bool tick(SimTime now, Duration interval, const std::vector<ChannelScanResult>& scan,
            Rng& rng);

 private:
  phy::Channel current_;
  PlannerPolicy planner_;
  DfsMonitor dfs_;
  std::uint64_t switches_ = 0;
  std::uint64_t radar_evacuations_ = 0;

  void switch_to(const phy::Channel& next);
};

}  // namespace wlm::scan

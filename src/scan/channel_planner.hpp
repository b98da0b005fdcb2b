// Channel planning from scan data — the paper's practical implication #2:
// "channel planning using a utilization measure to identify the best
// wireless channel", as opposed to counting visible networks, which
// Figures 7/8 show does not predict utilization.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "scan/scanner.hpp"

namespace wlm::scan {

enum class PlannerStrategy : std::uint8_t {
  kLeastUtilization,   // what the paper recommends
  kFewestNetworks,     // the naive baseline the paper debunks
};

struct PlannerPolicy {
  PlannerStrategy strategy = PlannerStrategy::kLeastUtilization;
  /// Skip DFS channels (radar-sensitive deployments often must).
  bool allow_dfs = true;
  /// Hysteresis: a candidate must beat the incumbent by this much
  /// utilization before a switch is recommended (avoids channel flapping).
  double min_improvement = 0.05;
};

struct ChannelRecommendation {
  phy::Channel channel;
  double utilization = 0.0;
  int neighbor_count = 0;
  bool switched = false;  // differs from the incumbent
  std::string rationale;
};

/// Picks the best channel of `band` from one scan window's results.
/// `current` (if set) is the incumbent channel for hysteresis.
[[nodiscard]] std::optional<ChannelRecommendation> recommend_channel(
    const std::vector<ChannelScanResult>& results, phy::Band band,
    const PlannerPolicy& policy, std::optional<phy::Channel> current = std::nullopt);

}  // namespace wlm::scan

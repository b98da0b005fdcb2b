#include "scan/channel_planner.hpp"

#include <algorithm>
#include <cstdio>

namespace wlm::scan {

std::optional<ChannelRecommendation> recommend_channel(
    const std::vector<ChannelScanResult>& results, phy::Band band,
    const PlannerPolicy& policy, std::optional<phy::Channel> current) {
  const ChannelScanResult* best = nullptr;
  const ChannelScanResult* incumbent = nullptr;
  for (const auto& r : results) {
    if (r.channel.band != band) continue;
    if (!policy.allow_dfs && r.channel.requires_dfs) continue;
    if (current && r.channel.number == current->number) incumbent = &r;
    if (best == nullptr) {
      best = &r;
      continue;
    }
    const bool better =
        policy.strategy == PlannerStrategy::kLeastUtilization
            ? r.counters.utilization() < best->counters.utilization()
            : r.neighbor_count < best->neighbor_count;
    if (better) best = &r;
  }
  if (best == nullptr) return std::nullopt;

  ChannelRecommendation rec;
  rec.channel = best->channel;
  rec.utilization = best->counters.utilization();
  rec.neighbor_count = best->neighbor_count;
  rec.switched = true;
  if (incumbent != nullptr) {
    // Hysteresis: only utilization-driven planning can quantify the gain.
    const double gain = incumbent->counters.utilization() - rec.utilization;
    if (best->channel.number == incumbent->channel.number ||
        (policy.strategy == PlannerStrategy::kLeastUtilization &&
         gain < policy.min_improvement)) {
      rec.channel = incumbent->channel;
      rec.utilization = incumbent->counters.utilization();
      rec.neighbor_count = incumbent->neighbor_count;
      rec.switched = false;
    }
  }
  char buf[160];
  std::snprintf(buf, sizeof buf, "%s: ch%d at %.1f%% utilization, %d networks%s",
                policy.strategy == PlannerStrategy::kLeastUtilization
                    ? "least-utilization"
                    : "fewest-networks",
                rec.channel.number, rec.utilization * 100.0, rec.neighbor_count,
                rec.switched ? "" : " (kept incumbent)");
  rec.rationale = buf;
  return rec;
}

}  // namespace wlm::scan

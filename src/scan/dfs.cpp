#include "scan/dfs.hpp"

#include <algorithm>

namespace wlm::scan {

bool DfsMonitor::is_available(const phy::Channel& channel, SimTime t) const {
  if (!channel.requires_dfs) return true;
  const auto it = blocked_until_.find(channel.number);
  return it == blocked_until_.end() || t >= it->second;
}

std::optional<SimTime> DfsMonitor::occupy(const phy::Channel& channel, SimTime from,
                                          Duration dwell, Rng& rng) {
  if (!channel.requires_dfs) return std::nullopt;
  const double hours = dwell.as_hours();
  const double p_detect = 1.0 - std::pow(1.0 - policy_.radar_prob_per_hour,
                                         std::max(0.0, hours));
  if (!rng.chance(p_detect)) return std::nullopt;
  // The detection lands uniformly within the dwell.
  const auto at = from + Duration::micros(static_cast<std::int64_t>(
                      rng.uniform() * static_cast<double>(dwell.as_micros())));
  blocked_until_[channel.number] = at + policy_.non_occupancy;
  ++detections_;
  return at;
}

AutoChannelAgent::AutoChannelAgent(phy::Channel initial, PlannerPolicy planner,
                                   DfsPolicy dfs)
    : current_(initial), planner_(planner), dfs_(dfs) {}

void AutoChannelAgent::switch_to(const phy::Channel& next) {
  if (next.number == current_.number && next.band == current_.band) return;
  current_ = next;
  ++switches_;
}

bool AutoChannelAgent::tick(SimTime now, Duration interval,
                            const std::vector<ChannelScanResult>& scan, Rng& rng) {
  const auto before = current_.number;

  // 1. Radar exposure while serving on the current channel.
  if (const auto radar = dfs_.occupy(current_, now, interval, rng)) {
    ++radar_evacuations_;
    // Immediate evacuation: take the best *available* channel; DFS channels
    // needing a CAC are acceptable (the CAC happens off-channel on the MR18
    // scanning radio) but blocked ones are not.
    std::vector<ChannelScanResult> usable;
    for (const auto& r : scan) {
      if (r.channel.band == current_.band && dfs_.is_available(r.channel, *radar) &&
          r.channel.number != current_.number) {
        usable.push_back(r);
      }
    }
    if (const auto rec = recommend_channel(usable, current_.band, planner_)) {
      switch_to(rec->channel);
    }
    return current_.number != before;
  }

  // 2. Routine re-planning with hysteresis.
  std::vector<ChannelScanResult> usable;
  for (const auto& r : scan) {
    if (r.channel.band == current_.band && dfs_.is_available(r.channel, now)) {
      usable.push_back(r);
    }
  }
  if (const auto rec = recommend_channel(usable, current_.band, planner_, current_)) {
    if (rec->switched) switch_to(rec->channel);
  }
  return current_.number != before;
}

}  // namespace wlm::scan

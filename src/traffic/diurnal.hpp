// Diurnal activity model.
//
// Business deployments (the bulk of Table 2's verticals) peak in working
// hours; Figure 9's day/night comparison (10 a.m. vs 10 p.m.) rides on this
// curve. Software-update releases add fleet-wide spikes (paper §6.2).
#pragma once

#include "core/rng.hpp"
#include "core/time.hpp"
#include "deploy/industry.hpp"

namespace wlm::traffic {

/// Relative activity multiplier at an hour of day in [0, 24); averages ~1
/// over the day. Industry selects the curve (offices vs hospitality).
[[nodiscard]] double diurnal_multiplier(double hour, deploy::Industry industry);

/// The two reference hours the paper samples (Pacific time).
inline constexpr double kDayHour = 10.0;    // 10 a.m.
inline constexpr double kNightHour = 22.0;  // 10 p.m.

/// A fleet-wide software-update event: for `duration`, devices of the
/// affected platform multiply their download traffic.
struct UpdateSpike {
  SimTime start;
  Duration duration = Duration::hours(6);
  bool affects_apple = false;
  bool affects_windows = false;
  double download_multiplier = 8.0;

  [[nodiscard]] bool active(SimTime t) const {
    return t >= start && t < start + duration;
  }
};

}  // namespace wlm::traffic

// Link monitor: watches mesh link delivery over a simulated week with the
// 300-second sliding windows and alerts when a link degrades below
// threshold — the operational use of the paper's §4.2 link metrics.
#include <cstdio>

#include "probe/link_table.hpp"
#include "sim/fleet_runner.hpp"

int main() {
  using namespace wlm;

  sim::WorldConfig config;
  config.fleet.epoch = deploy::Epoch::kJan2015;
  config.fleet.network_count = 30;
  config.seed = 7;
  sim::FleetRunner runner(config);
  if (runner.mesh_links().empty()) {
    std::printf("no same-channel mesh links in this deployment\n");
    return 0;
  }

  // Watch up to four links across a week at 30-minute reporting cadence.
  const std::size_t watched = std::min<std::size_t>(4, runner.mesh_links().size());
  std::printf("monitoring %zu of %zu links, alert threshold 50%% delivery\n\n", watched,
              runner.mesh_links().size());

  for (std::size_t i = 0; i < watched; ++i) {
    const auto& link = runner.mesh_links()[i];
    std::printf("link %zu: AP%u -> AP%u (%s, median rx %.1f dBm)\n", i + 1,
                link.from().value(), link.to().value(),
                link.band() == phy::Band::k5GHz ? "5 GHz" : "2.4 GHz", link.median_rx_dbm());
    const auto series = runner.link_week_series(i, Duration::hours(1));
    int alerts = 0;
    bool alarmed = false;
    double min_ratio = 1.0;
    double sum = 0.0;
    for (const auto& pt : series) {
      sum += pt.ratio;
      min_ratio = std::min(min_ratio, pt.ratio);
      const bool bad = pt.ratio < 0.5;
      if (bad && !alarmed) {
        ++alerts;
        if (alerts <= 3) {
          std::printf("  ALERT at t+%5.1f h: delivery %.0f%%\n", pt.hour_of_week,
                      pt.ratio * 100.0);
        }
      }
      alarmed = bad;
    }
    std::printf("  week summary: mean %.0f%%, min %.0f%%, %d degradation episodes\n\n",
                sum / static_cast<double>(series.size()) * 100.0, min_ratio * 100.0, alerts);
  }
  return 0;
}

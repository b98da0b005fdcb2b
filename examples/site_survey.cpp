// Site survey: the paper's practical implication #2 — "channel planning
// using a utilization measure to identify the best wireless channel".
//
// Surveys one campus-style deployment with an MR18-style scanning radio and
// recommends the channel with the lowest measured utilization, contrasting
// it with the naive pick (fewest visible networks) that the paper shows to
// be unreliable (Figures 7/8: count does not predict utilization).
#include <algorithm>
#include <cstdio>
#include <map>

#include "core/stats.hpp"
#include "sim/fleet_runner.hpp"

int main() {
  using namespace wlm;

  sim::WorldConfig config;
  config.fleet.epoch = deploy::Epoch::kJan2015;
  config.fleet.network_count = 8;
  config.fleet.model = deploy::ApModel::kMr18;
  config.seed = 1234;
  sim::FleetRunner runner(config);

  // Scan everything during business hours and collect per-channel stats.
  runner.run_mr18_scan(SimTime::epoch() + Duration::hours(10), 10.0);
  runner.harvest();

  struct ChannelStat {
    RunningStats util;
    int neighbors = 0;
  };
  std::map<std::pair<int, int>, ChannelStat> by_channel;  // (band, channel)
  runner.reports().for_each([&](const wire::ApReport& report) {
    std::map<std::pair<int, int>, int> neighbor_count;
    for (const auto& n : report.neighbors) {
      if (!n.is_same_fleet) ++neighbor_count[{n.band, n.channel}];
    }
    for (const auto& u : report.utilization) {
      if (u.cycle_us == 0) continue;
      auto& stat = by_channel[{u.band, u.channel}];
      stat.util.add(static_cast<double>(u.busy_us) / static_cast<double>(u.cycle_us));
      stat.neighbors += neighbor_count[{u.band, u.channel}];
    }
  });

  std::printf("%-10s %-8s %-12s %-10s\n", "band", "channel", "mean util", "networks");
  for (const auto& [key, stat] : by_channel) {
    std::printf("%-10s %-8d %10.1f%% %10d\n", key.first == 0 ? "2.4 GHz" : "5 GHz", key.second,
                stat.util.mean() * 100.0, stat.neighbors);
  }

  for (int band = 0; band <= 1; ++band) {
    const std::pair<int, int>* best_util = nullptr;
    const std::pair<int, int>* fewest_nets = nullptr;
    double best_u = 2.0;
    int best_n = INT32_MAX;
    for (const auto& [key, stat] : by_channel) {
      if (key.first != band) continue;
      if (stat.util.mean() < best_u) {
        best_u = stat.util.mean();
        best_util = &key;
      }
      if (stat.neighbors < best_n) {
        best_n = stat.neighbors;
        fewest_nets = &key;
      }
    }
    if (best_util != nullptr && fewest_nets != nullptr) {
      std::printf(
          "\n%s: recommended channel %d (%.1f%% measured utilization); naive "
          "fewest-networks pick would be channel %d — the paper shows network count "
          "does not predict utilization\n",
          band == 0 ? "2.4 GHz" : "5 GHz", best_util->second, best_u * 100.0,
          fewest_nets->second);
    }
  }
  return 0;
}

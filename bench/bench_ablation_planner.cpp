// Ablation: channel planning by measured utilization vs by counting visible
// networks (the paper's conclusion: "channel planning using a utilization
// measure", because Figures 7/8 show the count does not predict busyness).
#include <cstdio>

#include "core/stats.hpp"
#include "scan/channel_planner.hpp"
#include "sim/fleet_runner.hpp"

int main(int argc, char** argv) {
  using namespace wlm;
  const int networks = argc > 1 ? std::atoi(argv[1]) : 150;
  std::printf("=== Ablation: utilization-driven vs count-driven channel planning ===\n");
  std::printf("(%d networks, MR18 scan data, 2.4 GHz)\n\n", networks);

  sim::WorldConfig config;
  config.fleet.epoch = deploy::Epoch::kJan2015;
  config.fleet.network_count = networks;
  config.fleet.model = deploy::ApModel::kMr18;
  config.seed = 77;
  sim::FleetRunner runner(config);
  // Scan draws come from their own stream, seeded like the fleet.
  Rng rng(config.seed);

  const auto scanner = scan::default_mr18_scanner();
  RunningStats by_util;
  RunningStats by_count;
  RunningStats incumbent;
  for (auto& ap : runner.aps()) {
    const auto env = ap.environment(14.0);
    auto activities = env.activities_all(phy::ChannelPlan::us(), 14.0);
    auto results = scanner.scan_window(activities, phy::noise_floor(20.0), rng);

    scan::PlannerPolicy util_policy;
    scan::PlannerPolicy count_policy;
    count_policy.strategy = scan::PlannerStrategy::kFewestNetworks;
    const auto util_pick = scan::recommend_channel(results, phy::Band::k2_4GHz, util_policy);
    const auto count_pick =
        scan::recommend_channel(results, phy::Band::k2_4GHz, count_policy);
    if (!util_pick || !count_pick) continue;

    // Outcome metric: the true utilization of the chosen channel.
    auto true_util = [&](int number) {
      for (const auto& r : results) {
        if (r.channel.band == phy::Band::k2_4GHz && r.channel.number == number) {
          return r.counters.utilization();
        }
      }
      return 0.0;
    };
    by_util.add(true_util(util_pick->channel.number));
    by_count.add(true_util(count_pick->channel.number));
    incumbent.add(true_util(ap.config().channel_24));
  }

  std::printf("strategy             mean achieved utilization\n");
  std::printf("least-utilization    %6.1f%%\n", by_util.mean() * 100.0);
  std::printf("fewest-networks      %6.1f%%\n", by_count.mean() * 100.0);
  std::printf("incumbent (no plan)  %6.1f%%\n", incumbent.mean() * 100.0);
  std::printf("\nutilization-driven planning beats the naive count heuristic by %.0f%%\n",
              (by_count.mean() / std::max(1e-9, by_util.mean()) - 1.0) * 100.0);
  return 0;
}

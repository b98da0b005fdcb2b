// Integration tests: run each experiment at reduced scale and assert the
// paper's qualitative claims (the "shape" targets from DESIGN.md §5).
#include "analysis/experiments.hpp"

#include <gtest/gtest.h>

#include "analysis/scorecard.hpp"
#include "core/stats.hpp"

namespace wlm::analysis {
namespace {

ScenarioScale test_scale(int networks = 120) {
  ScenarioScale s;
  s.networks = networks;
  s.seed = 99;
  return s;
}

TEST(Calibration, Table7NeighborGrowth) {
  const auto run = run_neighbor_study(test_scale());
  // Growth direction and rough magnitude (paper: 55.47 / 28.60 / 3.68 / 2.47).
  EXPECT_NEAR(run.now.networks_per_ap_24, 55.47, 20.0);
  EXPECT_NEAR(run.six_months.networks_per_ap_24, 28.60, 12.0);
  EXPECT_GT(run.now.networks_per_ap_24, 1.5 * run.six_months.networks_per_ap_24);
  EXPECT_GT(run.now.networks_per_ap_5, run.six_months.networks_per_ap_5);
  EXPECT_LT(run.now.networks_per_ap_5, 8.0);
  // Hotspot shares (paper ~20% and 1.7%).
  EXPECT_NEAR(run.now.hotspot_frac_24, 0.20, 0.05);
  EXPECT_NEAR(run.now.hotspot_frac_5, 0.017, 0.02);
}

TEST(Calibration, Fig2ChannelOneLeads) {
  const auto run = run_neighbor_study(test_scale());
  auto count24 = [&](int ch) -> double {
    for (const auto& [c, n] : run.by_channel_24) {
      if (c == ch) return static_cast<double>(n);
    }
    return 0.0;
  };
  const double base = (count24(6) + count24(11)) / 2.0;
  ASSERT_GT(base, 0.0);
  EXPECT_NEAR(count24(1) / base, 1.37, 0.25);
  // 5 GHz: DFS-free UNII-1/UNII-3 dominate.
  double dfs_free = 0.0;
  double dfs = 0.0;
  for (const auto& [c, n] : run.by_channel_5) {
    if ((c >= 36 && c <= 48) || c >= 149) {
      dfs_free += static_cast<double>(n);
    } else {
      dfs += static_cast<double>(n);
    }
  }
  EXPECT_GT(dfs_free, 2.0 * dfs);
}

TEST(Calibration, Fig3LinkDeliveryShape) {
  const auto run = run_link_study(test_scale());
  ASSERT_GT(run.ratios_24_now.size(), 200u);
  ASSERT_GT(run.ratios_5_now.size(), 200u);

  auto frac = [](const std::vector<double>& v, auto pred) {
    return static_cast<double>(std::count_if(v.begin(), v.end(), pred)) /
           static_cast<double>(v.size());
  };
  // Majority of 2.4 GHz links are intermediate.
  EXPECT_GT(frac(run.ratios_24_now, [](double r) { return r > 0.05 && r < 0.95; }), 0.5);
  // Over half of 5 GHz links deliver everything (within one probe).
  EXPECT_GT(frac(run.ratios_5_now, [](double r) { return r >= 0.99; }), 0.4);
  // 2.4 GHz degraded over six months.
  EXPECT_LT(quantile(run.ratios_24_now, 0.5), quantile(run.ratios_24_before, 0.5) + 1e-9);
  // 5 GHz is better than 2.4 GHz overall.
  EXPECT_GT(quantile(run.ratios_5_now, 0.5), quantile(run.ratios_24_now, 0.5));
}

TEST(Calibration, Fig45SeriesVary) {
  const auto run = run_link_study(test_scale(60));
  ASSERT_GE(run.series_24.size(), 1u);
  for (const auto& s : run.series_24) {
    ASSERT_GT(s.ratios.size(), 100u);
    RunningStats stats;
    for (double r : s.ratios) stats.add(r);
    // Delivery on an intermediate link varies over the week (Figure 4).
    EXPECT_GT(stats.stddev(), 0.02);
  }
}

TEST(Calibration, Fig6UtilizationMedians) {
  const auto run = run_utilization_study(test_scale());
  ASSERT_GT(run.mr16_util_24.size(), 100u);
  // Paper: 2.4 GHz median 25%, p90 50%; 5 GHz median 5%, p90 30%.
  EXPECT_NEAR(quantile(run.mr16_util_24, 0.5), 0.25, 0.10);
  EXPECT_GT(quantile(run.mr16_util_24, 0.9), 0.35);
  EXPECT_NEAR(quantile(run.mr16_util_5, 0.5), 0.05, 0.05);
  EXPECT_LT(quantile(run.mr16_util_5, 0.5), quantile(run.mr16_util_24, 0.5));
}

TEST(Calibration, Fig78NoStrongCorrelation) {
  const auto run = run_utilization_study(test_scale());
  ASSERT_GT(run.scatter_util_24.size(), 500u);
  // Paper: "no clear correlation" between count and utilization.
  EXPECT_LT(std::abs(run.correlation_24), 0.65);
  EXPECT_LT(std::abs(run.correlation_5), 0.75);
}

TEST(Calibration, Fig9DayAboveNight) {
  const auto run = run_utilization_study(test_scale());
  const double day = quantile(run.day_24, 0.5);
  const double night = quantile(run.night_24, 0.5);
  EXPECT_GT(day, night);
  EXPECT_NEAR(day - night, 0.05, 0.05);  // ~5 points at the median
  // 5 GHz: most channels unused, distribution skewed to zero.
  EXPECT_LT(quantile(run.day_5, 0.5), 0.05);
}

TEST(Calibration, Fig10MajorityDecodable) {
  const auto run = run_utilization_study(test_scale());
  ASSERT_GT(run.decodable_24.size(), 50u);
  EXPECT_GT(quantile(run.decodable_24, 0.5), 0.5);
  EXPECT_GT(quantile(run.decodable_5, 0.5), 0.9);
}

TEST(Calibration, Fig1SnrAndBandSplit) {
  const auto run = run_snapshot_study(test_scale());
  const double total = static_cast<double>(run.clients_24 + run.clients_5);
  ASSERT_GT(total, 400.0);
  // Paper: ~80% of associated clients on 2.4 GHz; median SNR ~28 dB.
  EXPECT_NEAR(run.clients_24 / total, 0.80, 0.12);
  EXPECT_NEAR(quantile(run.snr_24, 0.5), 28.0, 10.0);
}

TEST(Calibration, Table4CapabilitiesThroughPipeline) {
  const auto run = run_snapshot_study(test_scale());
  // Measured through association + wire + aggregation, the Table 4
  // marginals must survive: 11ac 2.5% -> 18%, 5 GHz 48.9% -> 64.9%.
  EXPECT_NEAR(run.caps_2015[4], 0.180, 0.04);  // 11ac
  EXPECT_NEAR(run.caps_2014[4], 0.025, 0.02);
  EXPECT_NEAR(run.caps_2015[2], 0.649, 0.05);  // 5 GHz capable
  EXPECT_GT(run.caps_2015[3], run.caps_2014[3]);  // 40 MHz grew
}

TEST(Calibration, ScorecardHolds) {
  // Every claim `wlmctl report scorecard` checks, among them Table 3, Table
  // 6 and the pipeline's misclassification bound, which no test above does.
  const auto card = run_scorecard(test_scale());
  EXPECT_TRUE(card.all_passed()) << render_scorecard(card);
}

TEST(Calibration, SpectrumOccupancyOrdering) {
  const auto run = run_spectrum_study(4242);
  EXPECT_GT(run.occupancy_24, run.occupancy_5);
  EXPECT_GT(run.occupancy_24, 0.10);
  EXPECT_FALSE(run.waterfall_24.empty());
  EXPECT_FALSE(run.waterfall_5.empty());
}

}  // namespace
}  // namespace wlm::analysis

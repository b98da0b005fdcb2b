// End-to-end determinism of the analysis drivers across thread counts: the
// rendered artifacts — not just the raw stores — must be byte-identical
// whether the fleet runtime ran serially or on a worker pool.
#include <gtest/gtest.h>

#include <cstdint>

#include "analysis/experiments.hpp"
#include "core/checksum.hpp"
#include "sim/fleet_runner.hpp"
#include "wire/messages.hpp"

namespace wlm::analysis {
namespace {

ScenarioScale small_scale(int threads) {
  ScenarioScale scale;
  scale.networks = 12;
  scale.seed = 2015;
  scale.threads = threads;
  return scale;
}

TEST(Determinism, UsageStudyIdenticalAcrossThreadCounts) {
  const auto serial = run_usage_study(small_scale(1));
  const auto parallel = run_usage_study(small_scale(4));
  EXPECT_EQ(render_table3(serial), render_table3(parallel));
  EXPECT_EQ(render_table5(serial), render_table5(parallel));
  EXPECT_EQ(render_table6(serial), render_table6(parallel));
  EXPECT_EQ(serial.flows_classified, parallel.flows_classified);
  EXPECT_EQ(serial.flows_misclassified, parallel.flows_misclassified);
  EXPECT_DOUBLE_EQ(serial.mean_report_bytes_per_ap, parallel.mean_report_bytes_per_ap);
}

TEST(Determinism, UtilizationStudyIdenticalAcrossThreadCounts) {
  const auto serial = run_utilization_study(small_scale(1));
  const auto parallel = run_utilization_study(small_scale(4));
  EXPECT_EQ(render_fig6(serial), render_fig6(parallel));
  EXPECT_EQ(render_fig9(serial), render_fig9(parallel));
  EXPECT_EQ(render_fig10(serial), render_fig10(parallel));
}

TEST(Determinism, LinkStudyIdenticalAcrossThreadCounts) {
  // Each link owns its RNG and fading state, so measuring the links on the
  // worker pool must give every window the same draws as the serial loop.
  const auto serial = run_link_study(small_scale(1));
  const auto parallel = run_link_study(small_scale(4));
  ASSERT_FALSE(serial.ratios_24_now.empty());
  ASSERT_FALSE(serial.ratios_5_now.empty());
  EXPECT_EQ(serial.ratios_24_now, parallel.ratios_24_now);
  EXPECT_EQ(serial.ratios_24_before, parallel.ratios_24_before);
  EXPECT_EQ(serial.ratios_5_now, parallel.ratios_5_now);
  EXPECT_EQ(serial.ratios_5_before, parallel.ratios_5_before);
  EXPECT_EQ(render_fig3(serial), render_fig3(parallel));
  EXPECT_EQ(render_fig4(serial), render_fig4(parallel));
  EXPECT_EQ(render_fig5(serial), render_fig5(parallel));
}

/// CRC over the wire encoding of every stored report, in canonical order,
/// after a day and a night MR18 scan of `threads`-way sharded fleet.
std::uint32_t mr18_report_digest(int threads, std::size_t* reports) {
  sim::WorldConfig config;
  config.fleet.network_count = 30;
  config.fleet.model = deploy::ApModel::kMr18;
  config.fleet.seed = 1807;
  config.seed = 1808;
  config.threads = threads;
  sim::FleetRunner runner(config);
  runner.run_mr18_scan(SimTime::epoch() + Duration::hours(10), 10.0);
  runner.run_mr18_scan(SimTime::epoch() + Duration::hours(22), 22.0);
  runner.harvest();
  std::uint32_t crc = 0;
  *reports = 0;
  runner.reports().for_each([&](const wire::ApReport& report) {
    crc = crc32_update(crc, wire::encode_report(report));
    ++*reports;
  });
  return crc;
}

TEST(Determinism, Mr18ReportDigestPinnedAcrossThreadCounts) {
  // Pins every byte the MR18 scanner puts into a report (the per-channel
  // cycle/busy/rx-frame counters of Figures 7-10): a change to how dwells
  // are sampled must consume the same draws and produce the same counters.
  constexpr std::uint32_t kPinned = 0x980b9881;
  for (const int threads : {1, 4}) {
    std::size_t reports = 0;
    const std::uint32_t crc = mr18_report_digest(threads, &reports);
    EXPECT_GT(reports, 0U);
    EXPECT_EQ(crc, kPinned) << "threads " << threads << ": 0x" << std::hex << crc;
  }
}

}  // namespace
}  // namespace wlm::analysis

// Streaming-harvest equivalence: the incremental harvest merges many
// partial results (one per shard, per phase boundary) where the classic path
// merges once at the end. This test pins the property that makes that safe:
// the full FleetRunner pipeline emits a byte-identical report stream across
// harvest modes, worker counts and spill.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/fleet_runner.hpp"
#include "wire/messages.hpp"

namespace wlm {
namespace {

/// Full campaign on a small fleet; returns the row-encoded report stream —
/// the byte-level artifact every mode must reproduce exactly.
std::vector<std::uint8_t> run_fleet(std::uint64_t ceiling_mb, const std::string& spill_dir,
                                    int threads) {
  sim::WorldConfig config;
  config.fleet.network_count = 6;
  config.fleet.seed = 99;
  config.seed = 100;
  config.client_scale = 0.3;
  config.threads = threads;
  config.mem_ceiling_mb = ceiling_mb;
  config.spill_dir = spill_dir;
  sim::FleetRunner runner(config);
  runner.run_usage_week();
  runner.run_mr16_interference(SimTime::epoch() + Duration::hours(14));
  runner.run_link_windows(SimTime::epoch() + Duration::hours(14));
  runner.harvest();

  std::vector<std::uint8_t> out;
  runner.reports().for_each([&](const wire::ApReport& r) {
    const auto bytes = wire::encode_report(r);
    out.insert(out.end(), bytes.begin(), bytes.end());
  });
  EXPECT_FALSE(out.empty());
  return out;
}

TEST(MergeProperty, FleetReportStreamIdenticalAcrossModesAndWorkers) {
  // Classic hold-until-final harvest, serial: the baseline.
  const auto classic = run_fleet(0, ".", 1);

  // Streaming harvest with a roomy ceiling (never spills): the incremental
  // per-phase merge must land on the same bytes.
  EXPECT_EQ(run_fleet(4096, ".", 1), classic) << "streaming != classic";

  // Streaming across worker counts.
  EXPECT_EQ(run_fleet(4096, ".", 2), classic) << "jobs 2 diverged";
  EXPECT_EQ(run_fleet(4096, ".", 8), classic) << "jobs 8 diverged";

  // Streaming with a 1 MiB ceiling: forces spill-to-disk mid-campaign.
  const std::string spill_dir = testing::TempDir();
  EXPECT_EQ(run_fleet(1, spill_dir, 2), classic) << "spilled run diverged";
}

}  // namespace
}  // namespace wlm

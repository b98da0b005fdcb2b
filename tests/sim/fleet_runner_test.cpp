#include "sim/fleet_runner.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <string>

#include "core/checksum.hpp"
#include "failsafe/failpoint.hpp"
#include "telemetry/profile.hpp"
#include "wire/messages.hpp"

namespace wlm::sim {
namespace {

WorldConfig small_fleet(int networks = 12, std::uint64_t seed = 11, int threads = 1) {
  WorldConfig cfg;
  cfg.fleet.epoch = deploy::Epoch::kJan2015;
  cfg.fleet.network_count = networks;
  cfg.fleet.seed = seed;
  cfg.seed = seed + 1;
  cfg.threads = threads;
  return cfg;
}

/// Byte-exact digest of the harvested fleet: every report re-encoded with
/// the real wire codec, walked in canonical (ascending AP id) order so the
/// digest is a pure function of content.
std::uint32_t store_digest(const backend::ReportSource& reports) {
  std::uint32_t crc = 0;
  reports.for_each([&](const wire::ApReport& report) {
    crc = crc32_update(crc, wire::encode_report(report));
  });
  return crc;
}

std::uint32_t run_campaigns_and_digest(const WorldConfig& cfg) {
  FleetRunner runner(cfg);
  runner.run_usage_week(/*reports_per_week=*/7);
  runner.run_mr16_interference(SimTime::epoch() + Duration::hours(14));
  runner.run_link_windows(SimTime::epoch() + Duration::hours(14));
  runner.snapshot_clients(SimTime::epoch() + Duration::hours(20));
  runner.harvest();
  return store_digest(runner.reports());
}

/// Shards, APs and links line up with the generated fleet, and every AP
/// runtime reads the fleet's own config object rather than a copy.
void expect_structure_matches_fleet(FleetRunner& runner) {
  const deploy::Fleet& fleet = runner.fleet();
  ASSERT_EQ(runner.shards().size(), fleet.networks.size());
  EXPECT_EQ(static_cast<int>(runner.aps().size()), fleet.total_aps());
  std::size_t shard_links = 0;
  for (const auto& shard : runner.shards()) shard_links += shard->links().size();
  EXPECT_EQ(runner.mesh_links().size(), shard_links);
  for (const auto& ap : runner.aps()) {
    EXPECT_EQ(runner.find_ap(ap.id()), &ap);
  }
  for (std::size_t i = 0; i < fleet.networks.size(); ++i) {
    const NetworkShard& shard = *runner.shards()[i];
    EXPECT_EQ(&shard.network(), &fleet.networks[i]);
    ASSERT_EQ(shard.aps().size(), fleet.networks[i].aps.size());
    for (std::size_t a = 0; a < shard.aps().size(); ++a) {
      EXPECT_EQ(&shard.aps()[a].config(), &fleet.networks[i].aps[a]);
    }
  }
}

TEST(FleetRunner, StructureMatchesFleet) {
  FleetRunner runner(small_fleet());
  expect_structure_matches_fleet(runner);
}

TEST(FleetRunner, OutputBitIdenticalAcrossThreadCounts) {
  // The determinism contract: the merged store is byte-identical whether
  // campaigns ran serially or on a worker pool.
  const std::uint32_t serial = run_campaigns_and_digest(small_fleet(12, 11, 1));
  const std::uint32_t parallel4 = run_campaigns_and_digest(small_fleet(12, 11, 4));
  const std::uint32_t parallel3 = run_campaigns_and_digest(small_fleet(12, 11, 3));
  EXPECT_EQ(serial, parallel4);
  EXPECT_EQ(serial, parallel3);
  // Construction builds shards while the generator runs: an empty fleet, a
  // one-network fleet and more threads than networks must all return with
  // the same structure and output as the serial build.
  for (const int networks : {0, 1, 3}) {
    for (const int threads : {1, 4, 8}) {
      FleetRunner runner(small_fleet(networks, 11, threads));
      SCOPED_TRACE(testing::Message() << networks << " networks, " << threads << " threads");
      EXPECT_EQ(static_cast<int>(runner.fleet().networks.size()), networks);
      expect_structure_matches_fleet(runner);
    }
    EXPECT_EQ(run_campaigns_and_digest(small_fleet(networks, 11, 1)),
              run_campaigns_and_digest(small_fleet(networks, 11, 8)));
  }
}

TEST(FleetRunner, SeedChangesOutput) {
  EXPECT_NE(run_campaigns_and_digest(small_fleet(12, 11)),
            run_campaigns_and_digest(small_fleet(12, 12)));
}

TEST(FleetRunner, FlappedTunnelsSurviveShardedHarvest) {
  // Paper §2: a flapped WAN tunnel queues reports device-side and the
  // backend catches up when the connection returns. A sharded, parallel
  // harvest must not drop that backlog — flapped tunnels stay down until
  // harvest reconnects them, so every enqueued report lands in the store.
  auto count_reports = [](double flap_fraction, int threads) {
    WorldConfig cfg = small_fleet(10, 21, threads);
    cfg.faults.flap_fraction = flap_fraction;
    FleetRunner runner(cfg);
    runner.run_usage_week(/*reports_per_week=*/7);
    runner.harvest();
    return runner.reports().report_count();
  };
  const std::size_t clean = count_reports(0.0, 1);
  EXPECT_GT(clean, 0u);
  EXPECT_EQ(count_reports(0.9, 1), clean);
  EXPECT_EQ(count_reports(0.9, 4), clean);
}

TEST(FleetRunner, HarvestDrainsEveryTunnel) {
  FleetRunner runner(small_fleet());
  runner.run_usage_week(7);
  runner.harvest();
  for (const auto& ap : runner.aps()) {
    EXPECT_EQ(ap.tunnel().queued(), 0u);
  }
  // Shard-local stores were sealed into the segment vault.
  for (const auto& shard : runner.shards()) {
    EXPECT_EQ(shard->store().report_count(), 0u);
  }
}

TEST(FleetRunner, HarvestLeavesNoShardRowsStaged) {
  // Each shard's harvest task seals what it drained, so no decoded row
  // waits in a shard store once harvest returns: not in a kept shard, and
  // not in one whose merge the harvest.merge failpoint refuses (its batch
  // is dropped with it).
  struct Disarm {
    Disarm() { failsafe::failpoints().disarm_all(); }
    ~Disarm() { failsafe::failpoints().disarm_all(); }
  } disarm;
  for (const int threads : {1, 4}) {
    SCOPED_TRACE(testing::Message() << threads << " threads");
    FleetRunner runner(small_fleet(8, 11, threads));
    const std::uint32_t victim = runner.shards()[3]->id().value();
    ASSERT_TRUE(failsafe::failpoints().arm_list(
        "site=harvest.merge,net=" + std::to_string(victim) + ",action=error"));
    runner.run_usage_week(7);
    runner.harvest();
    failsafe::failpoints().disarm_all();
    ASSERT_TRUE(runner.supervisor().quarantined(3));
    for (const auto& shard : runner.shards()) {
      EXPECT_EQ(shard->store().report_count(), 0u) << "network " << shard->id().value();
    }
    EXPECT_GT(runner.fleet_tsdb().stats().reports, 0u);
  }
}

TEST(FleetRunner, CeilingLeavesNothingQueuedOrStagedAfterEachCampaign) {
  // Under a ceiling every campaign seals what it produced before it
  // returns: no frame waits in a tunnel and no decoded row waits in a
  // shard store for a later phase. No faults, so no tunnel is down.
  for (const int threads : {1, 4}) {
    WorldConfig cfg = small_fleet(8, 11, threads);
    cfg.mem_ceiling_mb = 1;
    cfg.spill_dir = testing::TempDir() + "ceiling_empty_j" + std::to_string(threads);
    cfg.mesh.mesh_fraction = 0.4;
    FleetRunner runner(cfg);
    const auto expect_empty = [&runner, threads](const char* phase) {
      SCOPED_TRACE(testing::Message() << phase << ", " << threads << " threads");
      for (const auto& shard : runner.shards()) {
        EXPECT_EQ(shard->store().report_count(), 0u) << "network " << shard->id().value();
      }
      for (const auto& ap : runner.aps()) {
        EXPECT_EQ(ap.tunnel().queued(), 0u) << "ap " << ap.id().value();
      }
    };
    const SimTime noon = SimTime::epoch() + Duration::hours(14);
    runner.run_usage_week(7);
    expect_empty("usage_week");
    runner.snapshot_clients(noon);
    expect_empty("snapshot");
    runner.run_mr16_interference(noon);
    expect_empty("mr16");
    runner.run_mr18_scan(noon, 14.0);
    expect_empty("mr18");
    runner.run_link_windows(noon);
    expect_empty("link_windows");
    EXPECT_GT(runner.fleet_tsdb().stats().reports, 0u);
  }
}

TEST(FleetRunner, LinkCallbackExceptionReachesTheCaller) {
  // A callback that throws on a helper thread must reach the caller like
  // one that throws on the calling thread, not terminate the process.
  for (const int threads : {1, 4, 8}) {
    FleetRunner runner(small_fleet(12, 11, threads));
    const std::size_t links = runner.mesh_links().size();
    ASSERT_GT(links, 2u);
    const std::size_t bad = links / 2;
    SCOPED_TRACE(testing::Message() << threads << " threads, link " << bad);
    try {
      runner.for_each_link([bad](std::size_t k, MeshLink&) {
        if (k == bad) throw std::runtime_error("link " + std::to_string(k));
      });
      ADD_FAILURE() << "for_each_link swallowed the exception";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()), "link " + std::to_string(bad));
    }
    // The pool is joined and the runner still works.
    std::atomic<std::size_t> visited{0};
    runner.for_each_link([&visited](std::size_t, MeshLink&) { ++visited; });
    EXPECT_EQ(visited.load(), links);
  }
}

TEST(FleetRunner, FeedsGlobalProfilerAndWorkTally) {
  // The benchmark's per-layer timings and work counts are read from these
  // process-wide sinks, so a runner must keep feeding them.
  telemetry::reset_global_profiler();
  telemetry::work_tally().reset();
  FleetRunner runner(small_fleet(4, 21));
  runner.run_usage_week(7);
  runner.harvest();
  const auto phases = telemetry::global_profiler().phases();
  for (const char* name : {"build", "usage_week", "harvest_drain", "harvest_merge"}) {
    const auto it = std::find_if(phases.begin(), phases.end(),
                                 [&](const auto& p) { return p.first == name; });
    ASSERT_NE(it, phases.end()) << name;
    EXPECT_EQ(it->second.count, 1u) << name;
  }
  EXPECT_GT(telemetry::work_tally().fragments.load(), 0u);
  EXPECT_GT(telemetry::work_tally().frames.load(), 0u);
  telemetry::reset_global_profiler();
  telemetry::work_tally().reset();
}

TEST(FleetRunner, ShardRngsAreSubstreamsOfBaseSeed) {
  FleetRunner runner(small_fleet(4, 33));
  for (const auto& shard : runner.shards()) {
    Rng expected = Rng::substream(33 + 1, shard->id().value());
    // The shard consumed draws during construction; fresh substreams from
    // the same derivation must agree with each other instead.
    Rng again = Rng::substream(33 + 1, shard->id().value());
    EXPECT_EQ(expected.next_u64(), again.next_u64());
  }
}

}  // namespace
}  // namespace wlm::sim

// The simulated world end to end, driven through sim::FleetRunner.
#include <gtest/gtest.h>

#include "backend/aggregate.hpp"
#include "sim/fleet_runner.hpp"

namespace wlm::sim {
namespace {

WorldConfig small_world(int networks = 15, std::uint64_t seed = 5) {
  WorldConfig cfg;
  cfg.fleet.epoch = deploy::Epoch::kJan2015;
  cfg.fleet.network_count = networks;
  cfg.fleet.seed = seed;
  cfg.seed = seed + 1;
  return cfg;
}

TEST(World, ConstructionInvariants) {
  FleetRunner world(small_world());
  EXPECT_EQ(static_cast<int>(world.aps().size()), world.fleet().total_aps());
  EXPECT_GT(world.client_count(), 100u);
  EXPECT_GT(world.mesh_links().size(), 0u);
  // Every mesh link references existing APs and was strong enough to track.
  for (auto& link : world.mesh_links()) {
    EXPECT_NE(link.from(), link.to());
    EXPECT_GE(link.median_rx_dbm(), -95.0);
  }
}

TEST(World, ClientsAssociatedWithPlausibleRssi) {
  FleetRunner world(small_world());
  int clients = 0;
  for (const auto& ap : world.aps()) {
    for (const double rssi : ap.clients().rssi_at_ap_dbm()) {
      ++clients;
      EXPECT_GT(rssi, -115.0);
      EXPECT_LT(rssi, 0.0);
    }
  }
  EXPECT_EQ(static_cast<std::size_t>(clients), world.client_count());
}

TEST(World, MajorityOfClientsOn24GHz) {
  // Paper Figure 1: ~80% of associated clients sit on 2.4 GHz.
  FleetRunner world(small_world(40, 11));
  int on24 = 0;
  int total = 0;
  for (const auto& ap : world.aps()) {
    for (const phy::Band band : ap.clients().bands()) {
      ++total;
      on24 += band == phy::Band::k2_4GHz;
    }
  }
  ASSERT_GT(total, 500);
  const double frac = static_cast<double>(on24) / total;
  EXPECT_GT(frac, 0.6);
  EXPECT_LT(frac, 0.95);
}

TEST(World, UsageCampaignFlowsThroughPipeline) {
  FleetRunner world(small_world());
  world.run_usage_week(/*reports_per_week=*/2);
  EXPECT_GT(world.flows_classified(), 100u);
  // Nothing reaches the store until harvest.
  EXPECT_EQ(world.reports().report_count(), 0u);
  world.harvest();
  EXPECT_EQ(world.reports().report_count(), world.aps().size() * 2);
  // Every tunnel fully drained.
  for (const auto& ap : world.aps()) EXPECT_EQ(ap.tunnel().queued(), 0u);
}

TEST(World, UsageBytesConservedThroughWire) {
  FleetRunner world(small_world(10, 7));
  world.run_usage_week(7);
  world.harvest();
  backend::UsageAggregator agg;
  agg.consume(world.reports(), SimTime::epoch(), SimTime::epoch() + Duration::days(8));
  // Every associated client that generated traffic appears exactly once.
  EXPECT_LE(agg.client_count(), world.client_count());
  EXPECT_GT(agg.client_count(), world.client_count() * 8 / 10);
  std::uint64_t total = 0;
  for (const auto& [mac, client] : agg.clients()) total += client.total();
  EXPECT_GT(total, 0u);
}

TEST(World, WanFlapLosesNothing) {
  auto cfg = small_world(10, 9);
  cfg.faults.flap_fraction = 0.5;
  FleetRunner world(cfg);
  world.run_usage_week(3);
  world.harvest();  // reconnects and drains queues
  EXPECT_EQ(world.reports().report_count(), world.aps().size() * 3);
  for (const auto& ap : world.aps()) {
    EXPECT_EQ(ap.tunnel().stats().frames_dropped, 0u);
  }
}

TEST(World, SnapshotCarriesCapabilitiesAndOs) {
  FleetRunner world(small_world(40));
  world.snapshot_clients(SimTime::epoch() + Duration::hours(20));
  world.harvest();
  int snapshots = 0;
  int with_os = 0;
  world.reports().for_each([&](const wire::ApReport& report) {
    for (const auto& snap : report.clients) {
      ++snapshots;
      with_os += snap.os_id != 0;
      EXPECT_NE(snap.capability_bits, 0u);
    }
  });
  // The instantaneous snapshot sees only in-session clients (the paper's
  // evening snapshot caught ~5% of the week's population); ours is larger
  // because clients_per_ap counts weekly *actives*.
  EXPECT_GT(snapshots, 0);
  EXPECT_LT(static_cast<std::size_t>(snapshots), world.client_count());
  // The OS detector should classify the overwhelming majority.
  EXPECT_GT(static_cast<double>(with_os) / snapshots, 0.75);
}

TEST(World, SnapshotLargerByDayThanNight) {
  FleetRunner day_world(small_world(30, 41));
  day_world.snapshot_clients(SimTime::epoch() + Duration::hours(14));
  day_world.harvest();
  FleetRunner night_world(small_world(30, 41));
  night_world.snapshot_clients(SimTime::epoch() + Duration::hours(3));
  night_world.harvest();
  auto count = [](FleetRunner& w) {
    int n = 0;
    w.reports().for_each(
        [&](const wire::ApReport& r) { n += static_cast<int>(r.clients.size()); });
    return n;
  };
  EXPECT_GT(count(day_world), count(night_world) * 2);
}

TEST(World, Mr16ReportsServingChannels) {
  FleetRunner world(small_world());
  world.run_mr16_interference(SimTime::epoch() + Duration::hours(14));
  world.harvest();
  world.reports().for_each([&](const wire::ApReport& report) {
    EXPECT_EQ(report.utilization.size(), 2u);  // one per band
    for (const auto& u : report.utilization) {
      EXPECT_GT(u.cycle_us, 0u);
      EXPECT_LE(u.busy_us, u.cycle_us);
      EXPECT_LE(u.rx_frame_us, u.busy_us);
    }
  });
}

TEST(World, Mr18ScanCoversAllChannels) {
  auto cfg = small_world(5, 13);
  cfg.fleet.model = deploy::ApModel::kMr18;
  FleetRunner world(cfg);
  world.run_mr18_scan(SimTime::epoch() + Duration::hours(10), 10.0);
  world.harvest();
  world.reports().for_each([&](const wire::ApReport& report) {
    EXPECT_EQ(report.utilization.size(), phy::ChannelPlan::us().channels().size());
  });
}

TEST(World, LinkWindowsReportedByReceiver) {
  FleetRunner world(small_world());
  world.run_link_windows(SimTime::epoch() + Duration::hours(14));
  world.harvest();
  std::size_t windows = 0;
  world.reports().for_each([&](const wire::ApReport& report) {
    for (const auto& l : report.links) {
      ++windows;
      EXPECT_EQ(l.probes_expected, 20u);
      EXPECT_LE(l.probes_received, l.probes_expected);
    }
  });
  EXPECT_EQ(windows, world.mesh_links().size());
}

TEST(World, WeekSeriesHasDiurnalStructure) {
  FleetRunner world(small_world(25, 17));
  ASSERT_GT(world.mesh_links().size(), 0u);
  const auto series = world.link_week_series(0, Duration::hours(2));
  EXPECT_EQ(series.size(), 7u * 12u);
  for (const auto& pt : series) {
    EXPECT_GE(pt.ratio, 0.0);
    EXPECT_LE(pt.ratio, 1.0);
  }
}

TEST(World, DeterministicAcrossRuns) {
  FleetRunner a(small_world(8, 21));
  FleetRunner b(small_world(8, 21));
  EXPECT_EQ(a.client_count(), b.client_count());
  EXPECT_EQ(a.mesh_links().size(), b.mesh_links().size());
  a.run_usage_week(1);
  b.run_usage_week(1);
  a.harvest();
  b.harvest();
  EXPECT_EQ(a.flows_classified(), b.flows_classified());
  EXPECT_EQ(a.flows_misclassified(), b.flows_misclassified());
}

TEST(World, RoamingClientsAppearOnMultipleAps) {
  // Paper SS2.3: the backend merges usage by MAC because phones roam.
  FleetRunner world(small_world(25, 29));
  world.run_usage_week(2);
  world.harvest();
  backend::UsageAggregator agg;
  agg.consume(world.reports(), SimTime::epoch(), SimTime::epoch() + Duration::days(8));
  int roamers = 0;
  for (const auto& [mac, client] : agg.clients()) {
    if (client.ap_count > 1) ++roamers;
  }
  // A meaningful share of the population roams (mobile devices).
  EXPECT_GT(roamers, static_cast<int>(agg.client_count() / 20));
}

TEST(World, UpdateSpikeInflatesReleaseDay) {
  traffic::UpdateSpike spike;
  spike.start = SimTime::epoch() + Duration::days(2);
  spike.duration = Duration::hours(12);
  spike.affects_windows = true;
  spike.download_multiplier = 10.0;

  FleetRunner world(small_world(10, 31));
  world.run_usage_week(7, {spike});
  world.harvest();
  std::vector<double> daily(7, 0.0);
  world.reports().for_each([&](const wire::ApReport& report) {
    const auto day =
        static_cast<std::size_t>(report.timestamp_us / Duration::days(1).as_micros());
    if (day >= daily.size()) return;
    for (const auto& u : report.usage) daily[day] += static_cast<double>(u.rx_bytes);
  });
  // Day 2 carries the surge; a neighboring day is the baseline.
  EXPECT_GT(daily[2], daily[1] * 1.5);
}

TEST(World, MisclassificationRateIsLow) {
  FleetRunner world(small_world(20, 23));
  world.run_usage_week(1);
  EXPECT_LT(static_cast<double>(world.flows_misclassified()) /
                static_cast<double>(world.flows_classified()),
            0.08);
}

}  // namespace
}  // namespace wlm::sim

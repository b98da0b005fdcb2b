// Mesh backhaul determinism & conservation: the deployment-mode guarantees
// ISSUE 10 pins. A mesh campaign's outputs are byte-identical for any
// --jobs; a mesh-off config consumes zero extra randomness (so every
// pre-mesh golden still holds); gateway outages strand whole relay
// subtrees into lost_mesh_partition without breaking conservation; and the
// new wire fields round-trip while staying absent from non-mesh reports.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "ckpt/container.hpp"
#include "ckpt/state.hpp"
#include "sim/fleet_runner.hpp"
#include "support/report_store.hpp"
#include "telemetry/export.hpp"
#include "wire/messages.hpp"

namespace wlm {
namespace {

sim::WorldConfig mesh_config(int threads) {
  sim::WorldConfig config;
  config.fleet.epoch = deploy::Epoch::kJan2015;
  config.fleet.network_count = 5;
  config.fleet.seed = 2015;
  config.seed = 2016;
  config.client_scale = 0.25;
  config.threads = threads;
  config.mesh.mesh_fraction = 0.5;
  config.mesh.drift_sigma_db = 3.0;
  return config;
}

struct Outputs {
  std::string prometheus;
  std::vector<std::uint8_t> store;
  std::string ledger;

  bool operator==(const Outputs&) const = default;
};

Outputs outputs_of(sim::FleetRunner& runner) {
  Outputs out;
  out.prometheus = telemetry::to_prometheus(runner.metrics());
  ckpt::Buf b;
  ckpt::save(b, test_support::to_store(runner.reports()));
  out.store = b.take();
  out.ledger = runner.loss_ledger().render();
  return out;
}

Outputs run_campaign(const sim::WorldConfig& config) {
  sim::FleetRunner runner(config);
  runner.run_usage_week(7);
  runner.run_mr16_interference(SimTime::epoch() + Duration::hours(14));
  runner.harvest(sim::HarvestMode::kFinal);
  return outputs_of(runner);
}

TEST(MeshDeterminism, OutputsByteIdenticalAcrossJobs) {
  const Outputs reference = run_campaign(mesh_config(1));
  EXPECT_FALSE(reference.prometheus.empty());
  // The run must actually exercise the relay path, or this test pins air.
  EXPECT_NE(reference.prometheus.find("wlm_mesh_relayed_reports_total"),
            std::string::npos);
  for (const int jobs : {2, 8}) {
    EXPECT_EQ(run_campaign(mesh_config(jobs)), reference) << "--jobs " << jobs;
  }
}

TEST(MeshDeterminism, MeshOffKnobsAreInert) {
  // mesh_fraction == 0 must bypass the module entirely: no extra RNG draws,
  // no metrics, no wire fields — byte-identical to a config that never
  // mentioned mesh, whatever the other mesh knobs say. This is the pin that
  // keeps every pre-mesh golden valid.
  sim::WorldConfig plain = mesh_config(2);
  plain.mesh = mesh::MeshConfig{};
  sim::WorldConfig off = mesh_config(2);
  off.mesh.mesh_fraction = 0.0;
  off.mesh.max_hops = 3;            // inert without a fraction
  off.mesh.relay_floor_dbm = -70.0;
  off.mesh.drift_sigma_db = 9.0;
  const Outputs a = run_campaign(plain);
  const Outputs b = run_campaign(off);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.prometheus.find("wlm_mesh"), std::string::npos)
      << "mesh metrics leaked into a mesh-off run";
}

TEST(MeshDeterminism, GatewayOutagesStrandSubtreesIntoLedger) {
  // A WAN outage on a gateway AP must strand its relay subtree: the
  // stranded reports land in lost_mesh_partition (they never reached a
  // tunnel, so no other bucket may claim them) and conservation still
  // closes — bit-identically across worker counts.
  sim::WorldConfig config;
  config.fleet.epoch = deploy::Epoch::kJan2015;
  config.fleet.network_count = 8;
  config.fleet.seed = 7;
  config.seed = 8;
  config.client_scale = 0.25;
  config.mesh.mesh_fraction = 0.6;
  config.faults.outage_rate_per_week = 3.0;
  config.faults.outage_mean_hours = 40.0;

  std::string baseline;
  for (const int jobs : {1, 2, 8}) {
    config.threads = jobs;
    sim::FleetRunner runner(config);
    runner.run_usage_week(7);
    runner.harvest(sim::HarvestMode::kFinal);
    const auto ledger = runner.loss_ledger();
    EXPECT_TRUE(ledger.conserved()) << ledger.render();
    EXPECT_GT(ledger.lost_mesh_partition, 0u)
        << "this scenario is tuned to strand at least one subtree";
    EXPECT_EQ(runner.metrics().counter_value("wlm_mesh_partition_lost_total"),
              ledger.lost_mesh_partition);
    if (jobs == 1) {
      baseline = ledger.render();
    } else {
      EXPECT_EQ(ledger.render(), baseline) << "--jobs " << jobs;
    }
  }
}

TEST(MeshWire, MeshFieldsRoundTripAndAreOmittedWhenZero) {
  wire::ApReport report;
  report.ap_id = 42;
  report.timestamp_us = 123'456'789;
  report.firmware = 3;
  report.usage.push_back(
      wire::ClientUsage{MacAddress::from_u64(0xAABBCCDDEE01ULL), 7, 1000, 2000});

  const auto plain = wire::encode_report(report);
  report.mesh_hops = 3;
  report.mesh_relay_us = 98'765;
  const auto meshed = wire::encode_report(report);
  // Non-mesh reports must encode byte-identically to firmware that
  // predates the fields; meshed ones append them.
  EXPECT_GT(meshed.size(), plain.size());

  const auto decoded = wire::decode_report(meshed);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, report);

  report.mesh_hops = 0;
  report.mesh_relay_us = 0;
  EXPECT_EQ(wire::encode_report(report), plain);
  const auto decoded_plain = wire::decode_report(plain);
  ASSERT_TRUE(decoded_plain.has_value());
  EXPECT_EQ(decoded_plain->mesh_hops, 0u);
  EXPECT_EQ(decoded_plain->mesh_relay_us, 0u);
}

TEST(MeshCheckpoint, FormatVersionIsSix) {
  // v6 added the mesh sections, so mesh checkpoints must not half-restore
  // in an older binary; every later format keeps them. The exact current
  // version and the rejection of older files are pinned in ckpt_fuzz_test.
  EXPECT_GE(ckpt::kFormatVersion, 6u);
}

}  // namespace
}  // namespace wlm

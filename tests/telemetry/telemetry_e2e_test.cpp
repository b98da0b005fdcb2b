// End-to-end telemetry: a faulted fleet campaign must produce a metrics
// snapshot that (a) reconciles exactly with the independently derived
// LossLedger and (b) is byte-identical for any worker-pool size.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "sim/fleet_runner.hpp"
#include "telemetry/export.hpp"
#include "telemetry/profile.hpp"

namespace wlm::sim {
namespace {

WorldConfig faulted_fleet(int networks = 8, std::uint64_t seed = 17, int threads = 1) {
  WorldConfig cfg;
  cfg.fleet.epoch = deploy::Epoch::kJan2015;
  cfg.fleet.network_count = networks;
  cfg.fleet.seed = seed;
  cfg.seed = seed + 1;
  cfg.threads = threads;
  cfg.faults.outage_rate_per_week = 2.0;
  cfg.faults.outage_mean_hours = 12.0;
  cfg.faults.reboot_rate_per_week = 1.0;
  cfg.faults.corrupt_probability = 0.02;
  cfg.faults.tunnel_queue_limit = 64;
  return cfg;
}

std::unique_ptr<FleetRunner> run_faulted(const WorldConfig& cfg) {
  auto runner = std::make_unique<FleetRunner>(cfg);
  runner->run_usage_week(/*reports_per_week=*/7);
  runner->run_mr16_interference(SimTime::epoch() + Duration::hours(14));
  runner->harvest(HarvestMode::kFinal);
  return runner;
}

TEST(TelemetryE2E, CountersReconcileWithLossLedger) {
  const auto runner = run_faulted(faulted_fleet());
  const fault::LossLedger ledger = runner->loss_ledger();
  ASSERT_TRUE(ledger.conserved());
  ASSERT_GT(ledger.generated, 0u);
  const auto& m = runner->metrics();

  // Live hot-path counters against the ledger's derived totals.
  EXPECT_EQ(m.counter_value("wlm_sim_reports_enqueued_total"), ledger.generated);
  EXPECT_EQ(m.counter_value("wlm_poller_reports_stored_total"), ledger.delivered);
  EXPECT_EQ(m.counter_value("wlm_poller_corrupt_frames_total") +
                m.counter_value("wlm_poller_malformed_reports_total"),
            ledger.lost_corruption);

  // Harvest-published gauges, summed across shards by the merge.
  EXPECT_DOUBLE_EQ(m.gauge_value("wlm_ledger_generated"),
                   static_cast<double>(ledger.generated));
  EXPECT_DOUBLE_EQ(m.gauge_value("wlm_ledger_delivered"),
                   static_cast<double>(ledger.delivered));
  EXPECT_DOUBLE_EQ(m.gauge_value("wlm_ledger_shed"), static_cast<double>(ledger.shed));
  EXPECT_DOUBLE_EQ(m.gauge_value("wlm_ledger_lost_reboot"),
                   static_cast<double>(ledger.lost_reboot));
  EXPECT_DOUBLE_EQ(m.gauge_value("wlm_ledger_lost_corruption"),
                   static_cast<double>(ledger.lost_corruption));
  EXPECT_DOUBLE_EQ(m.gauge_value("wlm_ledger_in_flight"),
                   static_cast<double>(ledger.in_flight));

  // Fault-side counters agree with the injector's own accounting.
  std::uint64_t reboots = 0;
  std::uint64_t corrupted = 0;
  for (const auto& shard : runner->shards()) {
    reboots += shard->injector().reboots_applied();
    corrupted += shard->injector().frames_corrupted();
  }
  EXPECT_EQ(m.counter_value("wlm_fault_reboots_total"), reboots);
  EXPECT_EQ(m.counter_value("wlm_fault_frames_corrupted_total"), corrupted);

  // Fleet structure gauges.
  EXPECT_DOUBLE_EQ(m.gauge_value("wlm_fleet_networks"),
                   static_cast<double>(runner->shards().size()));
  EXPECT_DOUBLE_EQ(m.gauge_value("wlm_fleet_aps"),
                   static_cast<double>(runner->aps().size()));
}

TEST(TelemetryE2E, SnapshotByteIdenticalAcrossJobs) {
  const auto serial = run_faulted(faulted_fleet(8, 17, 1));
  const auto jobs2 = run_faulted(faulted_fleet(8, 17, 2));
  const auto jobs8 = run_faulted(faulted_fleet(8, 17, 8));

  const std::string prom1 = telemetry::to_prometheus(serial->metrics());
  EXPECT_FALSE(prom1.empty());
  EXPECT_EQ(prom1, telemetry::to_prometheus(jobs2->metrics()));
  EXPECT_EQ(prom1, telemetry::to_prometheus(jobs8->metrics()));

  const std::string json1 = telemetry::to_json_lines(serial->metrics());
  EXPECT_EQ(json1, telemetry::to_json_lines(jobs2->metrics()));
  EXPECT_EQ(json1, telemetry::to_json_lines(jobs8->metrics()));

  const std::string trace1 = telemetry::spans_to_json_lines(serial->trace());
  EXPECT_FALSE(trace1.empty());
  EXPECT_EQ(trace1, telemetry::spans_to_json_lines(jobs2->trace()));
  EXPECT_EQ(trace1, telemetry::spans_to_json_lines(jobs8->trace()));
}

TEST(TelemetryE2E, FaultSpansAppearInTrace) {
  const auto runner = run_faulted(faulted_fleet());
  const auto& trace = runner->trace();
  ASSERT_FALSE(trace.empty());
  const auto has_kind = [&](telemetry::SpanKind kind) {
    return std::any_of(trace.begin(), trace.end(),
                       [kind](const telemetry::TraceSpan& s) { return s.kind == kind; });
  };
  EXPECT_TRUE(has_kind(telemetry::SpanKind::kEnqueue));
  EXPECT_TRUE(has_kind(telemetry::SpanKind::kPoll));
  EXPECT_TRUE(has_kind(telemetry::SpanKind::kHarvest));
  EXPECT_TRUE(has_kind(telemetry::SpanKind::kOutage));
  EXPECT_TRUE(has_kind(telemetry::SpanKind::kReboot));
  // Outage spans must be well-formed windows inside the simulated week.
  for (const auto& span : trace) {
    EXPECT_LE(span.start_us, span.end_us);
    if (span.kind == telemetry::SpanKind::kOutage) {
      EXPECT_LE(span.end_us, fault::FaultPlan::horizon().as_micros());
    }
  }
}

TEST(TelemetryE2E, SecondHarvestDoesNotDoubleCount) {
  auto runner = std::make_unique<FleetRunner>(faulted_fleet());
  runner->run_usage_week(7);
  runner->harvest(HarvestMode::kWeekEnd);
  const double generated_first = runner->metrics().gauge_value("wlm_ledger_generated");
  runner->harvest(HarvestMode::kFinal);
  // The merged registry is rebuilt each harvest, so the gauge tracks the
  // ledger instead of accumulating one copy per harvest call.
  EXPECT_DOUBLE_EQ(runner->metrics().gauge_value("wlm_ledger_generated"),
                   generated_first);
  EXPECT_DOUBLE_EQ(runner->metrics().gauge_value("wlm_ledger_generated"),
                   static_cast<double>(runner->loss_ledger().generated));
}

TEST(TelemetryE2E, CleanRunHasNoFaultTelemetry) {
  WorldConfig cfg = faulted_fleet(6, 5, 1);
  cfg.faults = fault::FaultSpec{};
  const auto runner = run_faulted(cfg);
  const auto& m = runner->metrics();
  EXPECT_EQ(m.counter_value("wlm_fault_outages_total"), 0u);
  EXPECT_EQ(m.counter_value("wlm_fault_reboots_total"), 0u);
  EXPECT_EQ(m.counter_value("wlm_sim_reports_enqueued_total"),
            runner->loss_ledger().generated);
  EXPECT_EQ(m.counter_value("wlm_poller_reports_stored_total"),
            runner->loss_ledger().delivered);
}

TEST(TelemetryE2E, ProfilerRecordsCampaignPhases) {
  telemetry::reset_global_profiler();
  const auto runner = run_faulted(faulted_fleet(4, 3, 1));
  const auto phases = telemetry::global_profiler().phases();
  const auto has_phase = [&](const char* name) {
    return std::any_of(phases.begin(), phases.end(),
                       [&](const auto& p) { return p.first == name; });
  };
  EXPECT_TRUE(has_phase("build"));
  EXPECT_TRUE(has_phase("usage_week"));
  EXPECT_TRUE(has_phase("mr16"));
  EXPECT_TRUE(has_phase("harvest_drain"));
  EXPECT_TRUE(has_phase("harvest_merge"));
}

}  // namespace
}  // namespace wlm::sim

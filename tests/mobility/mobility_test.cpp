// Mobility scenario pack, part 1: the walk itself.
//
// Three layers of guarantees, cheapest first:
//   1. Unit: MobilityConfig::clamped() degrades hostile knobs to legal
//      values; occupancy() stays inside [kMinOccupancy, 1]; advance() is a
//      pure function of (state, rng) and never leaves the site rectangle.
//   2. Fleet determinism: a mobility-ON campaign is byte-identical across
//      --jobs 1/2/8 (prometheus text, saved store bytes, loss ledger).
//   3. The off-switch: mobility-off campaigns must not consume a single
//      draw from the walk — wild knob values behind enabled=false produce
//      byte-identical output to an all-default run, and the checked-in
//      golden scorecards (tests/golden/*.golden, exercised by golden_tests)
//      pin mobility-off output against pre-mobility history.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "ckpt/state.hpp"
#include "mobility/mobility.hpp"
#include "sim/fleet_runner.hpp"
#include "support/report_store.hpp"
#include "telemetry/export.hpp"

namespace wlm {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

TEST(MobilityConfig, ClampedDegradesHostileKnobs) {
  mobility::MobilityConfig c;
  c.speed_mps = -3.0;
  c.pause_mean_s = -1.0;
  c.steps_per_week = 0;
  c.handoff_settle_steps = -4;
  c.handoff_hysteresis_db = -2.0;
  c.band_steer_bonus_db = 100.0;
  c.roam_probability = 7.0;
  const mobility::MobilityConfig k = c.clamped();
  EXPECT_DOUBLE_EQ(k.speed_mps, 1.1);
  EXPECT_DOUBLE_EQ(k.pause_mean_s, 600.0);
  EXPECT_EQ(k.steps_per_week, 168);
  EXPECT_EQ(k.handoff_settle_steps, 1);
  EXPECT_DOUBLE_EQ(k.handoff_hysteresis_db, 6.0);
  EXPECT_DOUBLE_EQ(k.band_steer_bonus_db, 20.0);
  EXPECT_DOUBLE_EQ(k.roam_probability, 1.0);
}

TEST(MobilityConfig, ClampedDegradesNaNsToDefaults) {
  mobility::MobilityConfig c;
  c.speed_mps = kNaN;
  c.pause_mean_s = kNaN;
  c.handoff_hysteresis_db = kNaN;
  c.band_steer_bonus_db = kNaN;
  c.roam_probability = kNaN;
  const mobility::MobilityConfig k = c.clamped();
  EXPECT_DOUBLE_EQ(k.speed_mps, 1.1);
  EXPECT_DOUBLE_EQ(k.pause_mean_s, 600.0);
  EXPECT_DOUBLE_EQ(k.handoff_hysteresis_db, 6.0);
  EXPECT_DOUBLE_EQ(k.band_steer_bonus_db, 0.0);
  EXPECT_DOUBLE_EQ(k.roam_probability, 0.6);
}

TEST(MobilityConfig, ClampedCapsOversizedKnobs) {
  mobility::MobilityConfig c;
  c.speed_mps = 1e9;
  c.pause_mean_s = 1e12;
  c.steps_per_week = 10'000'000;
  c.handoff_settle_steps = 9999;
  c.handoff_hysteresis_db = 500.0;
  c.band_steer_bonus_db = -500.0;
  c.roam_probability = -0.5;
  const mobility::MobilityConfig k = c.clamped();
  EXPECT_DOUBLE_EQ(k.speed_mps, 10.0);
  EXPECT_DOUBLE_EQ(k.pause_mean_s, 1e6);
  EXPECT_EQ(k.steps_per_week, 100'000);
  EXPECT_EQ(k.handoff_settle_steps, 100);
  EXPECT_DOUBLE_EQ(k.handoff_hysteresis_db, 50.0);
  EXPECT_DOUBLE_EQ(k.band_steer_bonus_db, -20.0);
  EXPECT_DOUBLE_EQ(k.roam_probability, 0.0);
}

TEST(MobilityConfig, ClampedIsIdentityOnLegalKnobs) {
  mobility::MobilityConfig c;
  c.enabled = true;
  c.speed_mps = 2.5;
  c.pause_mean_s = 120.0;
  c.steps_per_week = 336;
  c.handoff_settle_steps = 3;
  c.handoff_hysteresis_db = 8.0;
  c.band_steer_bonus_db = 4.0;
  c.roam_probability = 0.9;
  const mobility::MobilityConfig k = c.clamped();
  EXPECT_TRUE(k.enabled);
  EXPECT_DOUBLE_EQ(k.speed_mps, 2.5);
  EXPECT_DOUBLE_EQ(k.pause_mean_s, 120.0);
  EXPECT_EQ(k.steps_per_week, 336);
  EXPECT_EQ(k.handoff_settle_steps, 3);
  EXPECT_DOUBLE_EQ(k.handoff_hysteresis_db, 8.0);
  EXPECT_DOUBLE_EQ(k.band_steer_bonus_db, 4.0);
  EXPECT_DOUBLE_EQ(k.roam_probability, 0.9);
}

TEST(MobilityOccupancy, StaysWithinBoundsForEveryIndustryAndHour) {
  for (int i = 0; i < deploy::kIndustryCount; ++i) {
    const auto industry = static_cast<deploy::Industry>(i);
    for (double hour = 0.0; hour < 24.0; hour += 0.25) {
      const double p = mobility::occupancy(hour, industry);
      EXPECT_GE(p, mobility::kMinOccupancy)
          << "industry " << i << " hour " << hour;
      EXPECT_LE(p, 1.0) << "industry " << i << " hour " << hour;
    }
  }
}

TEST(MobilityOccupancy, OfficesBusierAtNoonThanAtNight) {
  const double noon =
      mobility::occupancy(13.0, deploy::Industry::kFinanceInsurance);
  const double night =
      mobility::occupancy(3.0, deploy::Industry::kFinanceInsurance);
  EXPECT_GT(noon, night);
}

TEST(MobilityAdvance, DeterministicGivenEqualRngState) {
  const mobility::MobilityConfig cfg = mobility::MobilityConfig{}.clamped();
  Rng a = Rng::substream(7, 42);
  Rng b = Rng::substream(7, 42);
  mobility::MotionState ma;
  ma.pos = ma.target = phy::Position{10.0, 10.0};
  mobility::MotionState mb = ma;
  for (int step = 0; step < 2000; ++step) {
    mobility::advance(ma, 3600.0 / 4.0, cfg, 60.0, 40.0, a);
    mobility::advance(mb, 3600.0 / 4.0, cfg, 60.0, 40.0, b);
    ASSERT_DOUBLE_EQ(ma.pos.x, mb.pos.x) << "step " << step;
    ASSERT_DOUBLE_EQ(ma.pos.y, mb.pos.y) << "step " << step;
    ASSERT_DOUBLE_EQ(ma.pause_s, mb.pause_s) << "step " << step;
  }
}

TEST(MobilityAdvance, NeverLeavesTheSiteRectangle) {
  const mobility::MobilityConfig cfg = mobility::MobilityConfig{}.clamped();
  Rng rng = Rng::substream(11, 3);
  mobility::MotionState m;
  m.pos = m.target = phy::Position{0.0, 0.0};  // start on the corner
  for (int step = 0; step < 5000; ++step) {
    mobility::advance(m, 900.0, cfg, 55.0, 35.0, rng);
    ASSERT_GE(m.pos.x, 0.0) << "step " << step;
    ASSERT_LE(m.pos.x, 55.0) << "step " << step;
    ASSERT_GE(m.pos.y, 0.0) << "step " << step;
    ASSERT_LE(m.pos.y, 35.0) << "step " << step;
  }
}

TEST(MobilityAdvance, PauseBurnsDownBeforeAnyMotion) {
  const mobility::MobilityConfig cfg = mobility::MobilityConfig{}.clamped();
  Rng rng = Rng::substream(1, 1);
  mobility::MotionState m;
  m.pos = phy::Position{5.0, 5.0};
  m.target = phy::Position{50.0, 5.0};
  m.pause_s = 100.0;
  mobility::advance(m, 40.0, cfg, 60.0, 40.0, rng);
  EXPECT_DOUBLE_EQ(m.pos.x, 5.0);  // still dwelling
  EXPECT_DOUBLE_EQ(m.pause_s, 60.0);
  mobility::advance(m, 80.0, cfg, 60.0, 40.0, rng);
  EXPECT_DOUBLE_EQ(m.pause_s, 0.0);  // pause clamps at zero, motion next step
  EXPECT_DOUBLE_EQ(m.pos.x, 5.0);
  mobility::advance(m, 10.0, cfg, 60.0, 40.0, rng);
  EXPECT_GT(m.pos.x, 5.0);  // now walking toward the waypoint
  EXPECT_DOUBLE_EQ(m.pos.y, 5.0);
}

// ---------------------------------------------------------------------------
// Fleet-level determinism.

sim::WorldConfig mobile_config(int threads) {
  sim::WorldConfig config;
  config.fleet.epoch = deploy::Epoch::kJan2015;
  config.fleet.network_count = 6;
  config.fleet.seed = 2015;
  config.seed = 2016;
  config.client_scale = 0.25;
  config.threads = threads;
  config.mobility.enabled = true;
  config.mobility.steps_per_week = 96;  // tier-1 budget; still roams plenty
  return config;
}

/// Everything a campaign produces, in byte-comparable form (the same shape
/// the ckpt kill-and-resume harness pins).
struct Outputs {
  std::string prometheus;
  std::vector<std::uint8_t> store;
  std::string ledger;

  bool operator==(const Outputs&) const = default;
};

Outputs run_campaign(const sim::WorldConfig& config) {
  sim::FleetRunner runner(config);
  runner.run_usage_week(7);
  runner.harvest(sim::HarvestMode::kFinal);
  Outputs out;
  out.prometheus = telemetry::to_prometheus(runner.metrics());
  ckpt::Buf b;
  ckpt::save(b, test_support::to_store(runner.reports()));
  out.store = b.take();
  out.ledger = runner.loss_ledger().render();
  return out;
}

TEST(MobilityDeterminism, WalkByteIdenticalAcrossJobs) {
  const Outputs reference = run_campaign(mobile_config(1));
  for (const int jobs : {2, 8}) {
    const Outputs other = run_campaign(mobile_config(jobs));
    EXPECT_EQ(other, reference) << "mobility-on output differs at --jobs " << jobs;
  }
}

TEST(MobilityDeterminism, RoamingActuallyHappens) {
  // Determinism alone would pass on a walk that never roams; pin that the
  // campaign produces real churn so the other tests are testing something.
  sim::FleetRunner runner(mobile_config(2));
  runner.run_usage_week(7);
  runner.harvest(sim::HarvestMode::kFinal);
  const auto& metrics = runner.metrics();
  EXPECT_GT(metrics.counter_value("wlm_mobility_clients_walking_total"), 0u);
  EXPECT_GT(metrics.counter_value("wlm_mobility_steps_active_total"), 0u);
  EXPECT_GT(metrics.counter_value("wlm_mobility_roams_total"), 0u);
  EXPECT_GE(metrics.counter_value("wlm_mobility_handoffs_armed_total"),
            metrics.counter_value("wlm_mobility_roams_total"));
}

TEST(MobilityDeterminism, DisabledWalkPublishesNoCounters) {
  sim::WorldConfig config = mobile_config(2);
  config.mobility.enabled = false;
  sim::FleetRunner runner(config);
  runner.run_usage_week(7);
  runner.harvest(sim::HarvestMode::kFinal);
  const auto& metrics = runner.metrics();
  EXPECT_EQ(metrics.counter_value("wlm_mobility_clients_walking_total"), 0u);
  EXPECT_EQ(metrics.counter_value("wlm_mobility_roams_total"), 0u);
  EXPECT_EQ(telemetry::to_prometheus(metrics).find("wlm_mobility_"),
            std::string::npos)
      << "mobility-off run leaked wlm_mobility_* series into /metrics";
}

TEST(MobilityDeterminism, DisabledKnobsDoNotLeakIntoOutput) {
  // enabled=false must bypass the walk entirely: hostile knob values behind
  // the off-switch may not shift a single byte. (roam_probability stays at
  // its default — that knob is live even with mobility off, by design: it
  // replaces the old hard-coded 0.6 in deploy::PopulationModel.)
  sim::WorldConfig plain = mobile_config(2);
  plain.mobility = mobility::MobilityConfig{};

  sim::WorldConfig wild = mobile_config(2);
  wild.mobility = mobility::MobilityConfig{};
  wild.mobility.enabled = false;
  wild.mobility.speed_mps = 9.5;
  wild.mobility.pause_mean_s = 1.0;
  wild.mobility.steps_per_week = 7;
  wild.mobility.handoff_settle_steps = 50;
  wild.mobility.handoff_hysteresis_db = 0.0;
  wild.mobility.band_steer_bonus_db = 15.0;

  EXPECT_EQ(run_campaign(plain), run_campaign(wild));
}

}  // namespace
}  // namespace wlm

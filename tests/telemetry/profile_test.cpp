#include "telemetry/profile.hpp"

#include <gtest/gtest.h>

namespace wlm::telemetry {
namespace {

TEST(PhaseProfiler, AccumulatesSecondsAndCounts) {
  PhaseProfiler profiler;
  profiler.record("build", 0.5);
  profiler.record("build", 0.25);
  profiler.record("harvest", 1.0);
  const auto phases = profiler.phases();
  ASSERT_EQ(phases.size(), 2u);
  // Sorted by name.
  EXPECT_EQ(phases[0].first, "build");
  EXPECT_DOUBLE_EQ(phases[0].second.seconds, 0.75);
  EXPECT_EQ(phases[0].second.count, 2u);
  EXPECT_EQ(phases[1].first, "harvest");
  EXPECT_EQ(phases[1].second.count, 1u);
}

TEST(PhaseProfiler, ClearEmpties) {
  PhaseProfiler profiler;
  profiler.record("build", 0.5);
  profiler.clear();
  EXPECT_TRUE(profiler.phases().empty());
}

TEST(Stopwatch, SecondsIsNonNegativeAndRestartable) {
  Stopwatch watch;
  EXPECT_GE(watch.seconds(), 0.0);
  watch.restart();
  EXPECT_GE(watch.seconds(), 0.0);
}

TEST(GlobalProfiler, IsASingleton) {
  EXPECT_EQ(&global_profiler(), &global_profiler());
}

TEST(GlobalProfiler, ResetDropsAccumulatedPhasesButKeepsTheSingleton) {
  // Benchmark runs call reset_global_profiler() between runs so one run's
  // phases never bleed into the next. The object itself must survive.
  auto& profiler = global_profiler();
  profiler.record("stale_phase", 1.25);
  ASSERT_FALSE(profiler.phases().empty());
  reset_global_profiler();
  EXPECT_TRUE(global_profiler().phases().empty());
  EXPECT_EQ(&global_profiler(), &profiler);
  // Still usable after the reset.
  global_profiler().record("fresh_phase", 0.5);
  const auto phases = global_profiler().phases();
  ASSERT_EQ(phases.size(), 1u);
  EXPECT_EQ(phases[0].first, "fresh_phase");
  reset_global_profiler();
}

TEST(WorkTally, AccumulatesAndResets) {
  auto& tally = work_tally();
  tally.reset();
  tally.fragments.fetch_add(250, std::memory_order_relaxed);
  tally.fragments.fetch_add(1, std::memory_order_relaxed);
  tally.frames.fetch_add(42, std::memory_order_relaxed);
  EXPECT_EQ(tally.fragments.load(), 251u);
  EXPECT_EQ(tally.frames.load(), 42u);
  tally.reset();
  EXPECT_EQ(tally.fragments.load(), 0u);
  EXPECT_EQ(tally.frames.load(), 0u);
  EXPECT_EQ(&work_tally(), &tally);
}

}  // namespace
}  // namespace wlm::telemetry

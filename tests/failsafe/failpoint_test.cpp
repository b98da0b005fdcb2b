#include "failsafe/failpoint.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <new>
#include <string>
#include <vector>

namespace wlm::failsafe {
namespace {

/// The registry is process-global; every test scopes its arming with this
/// RAII guard so no schedule leaks into the next test.
struct ScopedDisarm {
  ScopedDisarm() { failpoints().disarm_all(); }
  ~ScopedDisarm() { failpoints().disarm_all(); }
};

TEST(FailpointSpecParse, FullClauseRoundTrips) {
  std::string error;
  const auto specs = FailpointSpec::parse_list(
      "site=shard.step,net=7,action=delay,after=2,times=3,hours=4.5,prob=0.25,seed=99",
      &error);
  ASSERT_TRUE(specs.has_value()) << error;
  ASSERT_EQ(specs->size(), 1u);
  const FailpointSpec& s = (*specs)[0];
  EXPECT_EQ(s.site, "shard.step");
  EXPECT_EQ(s.entity, 7u);
  EXPECT_FALSE(s.any_entity);
  EXPECT_EQ(s.action, FailAction::kDelay);
  EXPECT_EQ(s.after, 2u);
  EXPECT_EQ(s.times, 3u);
  EXPECT_DOUBLE_EQ(s.delay_hours, 4.5);
  EXPECT_DOUBLE_EQ(s.probability, 0.25);
  EXPECT_EQ(s.seed, 99u);
}

TEST(FailpointSpecParse, DefaultsMatchDocumented) {
  const auto specs = FailpointSpec::parse_list("site=poller.poll");
  ASSERT_TRUE(specs.has_value());
  const FailpointSpec& s = (*specs)[0];
  EXPECT_TRUE(s.any_entity);
  EXPECT_EQ(s.action, FailAction::kThrow);
  EXPECT_EQ(s.after, 0u);
  EXPECT_EQ(s.times, 0u);
  EXPECT_DOUBLE_EQ(s.probability, 1.0);
}

TEST(FailpointSpecParse, SemicolonSeparatesClauses) {
  const auto specs = FailpointSpec::parse_list(
      "site=shard.step,action=throw;site=ckpt.save.write,action=error");
  ASSERT_TRUE(specs.has_value());
  ASSERT_EQ(specs->size(), 2u);
  EXPECT_EQ((*specs)[0].site, "shard.step");
  EXPECT_EQ((*specs)[1].site, "ckpt.save.write");
  EXPECT_EQ((*specs)[1].action, FailAction::kError);
}

TEST(FailpointSpecParse, RejectsBadInput) {
  std::string error;
  // Each bad spec must fail with a diagnostic naming the problem.
  const char* bad[] = {
      "action=throw",                     // missing site
      "site=shard.step,flavor=spicy",     // unknown key
      "site=shard.step,after=lots",       // non-numeric count
      "site=shard.step,prob=1.5",         // probability out of range
      "site=shard.step,hours=-2",         // negative stall
      "site=shard.step,action=explode",   // unknown action
      "",                                 // empty clause
  };
  for (const char* text : bad) {
    error.clear();
    EXPECT_FALSE(FailpointSpec::parse_list(text, &error).has_value()) << text;
    EXPECT_FALSE(error.empty()) << text;
  }
}

TEST(FailpointRegistry, UnarmedIsFreeAndSilent) {
  ScopedDisarm guard;
  EXPECT_FALSE(failpoints().armed());
  EXPECT_NO_THROW(failpoint("shard.step"));
  EXPECT_FALSE(failpoint_fails("ckpt.save.write"));
  EXPECT_EQ(failpoints().hits("shard.step", 0), 0u);
}

TEST(FailpointRegistry, ThrowActionFiresOnMatchingSiteOnly) {
  ScopedDisarm guard;
  ASSERT_TRUE(failpoints().arm_list("site=shard.step,action=throw"));
  EXPECT_TRUE(failpoints().armed());
  EXPECT_NO_THROW(failpoint("poller.poll"));
  EXPECT_THROW(failpoint("shard.step"), FailpointError);
}

TEST(FailpointRegistry, EntityFilterTargetsOneNetwork) {
  ScopedDisarm guard;
  ASSERT_TRUE(failpoints().arm_list("site=shard.step,net=3,action=throw"));
  {
    ScopedShardContext ctx(2, 0.0);
    EXPECT_NO_THROW(failpoint("shard.step"));
  }
  {
    ScopedShardContext ctx(3, 0.0);
    EXPECT_THROW(failpoint("shard.step"), FailpointError);
  }
  // An entity-filtered clause only tracks the entity it targets.
  EXPECT_EQ(failpoints().hits("shard.step", 2), 0u);
  EXPECT_EQ(failpoints().hits("shard.step", 3), 1u);
}

TEST(FailpointRegistry, AfterAndTimesBoundTheSchedule) {
  ScopedDisarm guard;
  ASSERT_TRUE(failpoints().arm_list("site=shard.step,after=2,times=2,action=throw"));
  std::vector<bool> fired;
  for (int i = 0; i < 6; ++i) {
    bool f = false;
    try {
      failpoints().eval("shard.step", 0);
    } catch (const FailpointError&) {
      f = true;
    }
    fired.push_back(f);
  }
  // Hits 1-2 skipped by `after`, hits 3-4 fire, `times` then exhausts.
  EXPECT_EQ(fired, (std::vector<bool>{false, false, true, true, false, false}));
  EXPECT_EQ(failpoints().hits("shard.step", 0), 6u);
}

TEST(FailpointRegistry, PerEntityCountersAreIndependent) {
  ScopedDisarm guard;
  ASSERT_TRUE(failpoints().arm_list("site=shard.step,times=1,action=throw"));
  EXPECT_THROW(failpoints().eval("shard.step", 1), FailpointError);
  EXPECT_NO_THROW(failpoints().eval("shard.step", 1));  // entity 1 exhausted
  EXPECT_THROW(failpoints().eval("shard.step", 2), FailpointError);  // 2 is fresh
}

TEST(FailpointRegistry, ProbabilisticScheduleReplaysBitIdentically) {
  ScopedDisarm guard;
  const auto record = [] {
    std::vector<bool> fired;
    for (int i = 0; i < 64; ++i) {
      bool f = false;
      try {
        failpoints().eval("shard.step", 5);
      } catch (const FailpointError&) {
        f = true;
      }
      fired.push_back(f);
    }
    return fired;
  };
  ASSERT_TRUE(failpoints().arm_list("site=shard.step,prob=0.3,seed=42,action=throw"));
  const auto first = record();
  failpoints().disarm_all();
  ASSERT_TRUE(failpoints().arm_list("site=shard.step,prob=0.3,seed=42,action=throw"));
  const auto replay = record();
  EXPECT_EQ(first, replay);
  // Sanity: a 0.3 schedule over 64 hits fires some but not all.
  const auto count = static_cast<std::size_t>(std::count(first.begin(), first.end(), true));
  EXPECT_GT(count, 0u);
  EXPECT_LT(count, 64u);

  // A different seed draws a different schedule.
  failpoints().disarm_all();
  ASSERT_TRUE(failpoints().arm_list("site=shard.step,prob=0.3,seed=43,action=throw"));
  EXPECT_NE(first, record());
}

TEST(FailpointRegistry, DelayAccumulatesAndTripsWatchdog) {
  ScopedDisarm guard;
  ASSERT_TRUE(failpoints().arm_list("site=poller.poll,action=delay,hours=2"));
  ScopedShardContext ctx(9, /*deadline_hours=*/5.0);
  EXPECT_NO_THROW(failpoint("poller.poll"));  // 2h
  EXPECT_NO_THROW(failpoint("poller.poll"));  // 4h
  EXPECT_DOUBLE_EQ(ScopedShardContext::current_delay_hours(), 4.0);
  try {
    failpoint("poller.poll");  // 6h > 5h deadline
    FAIL() << "watchdog did not trip";
  } catch (const WatchdogTimeout& e) {
    EXPECT_NE(std::string(e.what()).find("watchdog"), std::string::npos);
  }
}

TEST(FailpointRegistry, DelayWithoutDeadlineNeverTrips) {
  ScopedDisarm guard;
  ASSERT_TRUE(failpoints().arm_list("site=poller.poll,action=delay,hours=100"));
  ScopedShardContext ctx(9, /*deadline_hours=*/0.0);
  for (int i = 0; i < 10; ++i) EXPECT_NO_THROW(failpoint("poller.poll"));
  EXPECT_DOUBLE_EQ(ScopedShardContext::current_delay_hours(), 1000.0);
}

TEST(FailpointRegistry, OomActionThrowsBadAlloc) {
  ScopedDisarm guard;
  ASSERT_TRUE(failpoints().arm_list("site=shard.alloc,action=oom,times=1"));
  EXPECT_THROW(failpoint("shard.alloc"), std::bad_alloc);
  EXPECT_NO_THROW(failpoint("shard.alloc"));
}

TEST(FailpointRegistry, EvalFailsReportsAnyFiringActionAsFailure) {
  ScopedDisarm guard;
  // Whatever the armed action, an error-return site reads a firing as
  // "the operation failed" — it must never unwind.
  for (const char* action : {"error", "throw", "delay", "oom"}) {
    failpoints().disarm_all();
    ASSERT_TRUE(failpoints().arm_list(std::string("site=ckpt.save.write,action=") +
                                      action));
    EXPECT_TRUE(failpoint_fails("ckpt.save.write")) << action;
  }
  failpoints().disarm_all();
  EXPECT_FALSE(failpoint_fails("ckpt.save.write"));
}

TEST(FailpointRegistry, FirstMatchingClauseWinsButAllCountHits) {
  ScopedDisarm guard;
  ASSERT_TRUE(failpoints().arm_list(
      "site=shard.step,action=delay,hours=1;site=shard.step,action=throw"));
  ScopedShardContext ctx(4, 0.0);
  // One hit: the delay clause fires (first match), the throw clause never
  // gets its turn, yet both clauses observed the hit.
  EXPECT_NO_THROW(failpoint("shard.step"));
  EXPECT_DOUBLE_EQ(ScopedShardContext::current_delay_hours(), 1.0);
  EXPECT_EQ(failpoints().hits("shard.step", 4), 1u);
}

TEST(FailpointRegistry, ArmListRejectsBadTextAtomically) {
  ScopedDisarm guard;
  std::string error;
  EXPECT_FALSE(failpoints().arm_list("site=shard.step;site=,action=throw", &error));
  EXPECT_FALSE(error.empty());
  // Nothing from the good clause leaks through a failed arm.
  EXPECT_FALSE(failpoints().armed());
  EXPECT_NO_THROW(failpoint("shard.step"));
}

TEST(ScopedShardContext, NestsAndRestores) {
  EXPECT_EQ(ScopedShardContext::current_entity(), 0u);
  {
    ScopedShardContext outer(7, 0.0);
    EXPECT_EQ(ScopedShardContext::current_entity(), 7u);
    {
      ScopedShardContext inner(8, 0.0);
      EXPECT_EQ(ScopedShardContext::current_entity(), 8u);
    }
    EXPECT_EQ(ScopedShardContext::current_entity(), 7u);
  }
  EXPECT_EQ(ScopedShardContext::current_entity(), 0u);
}

}  // namespace
}  // namespace wlm::failsafe

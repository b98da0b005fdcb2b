#include "backend/poller.hpp"

#include <gtest/gtest.h>

#include "wire/framing.hpp"

namespace wlm::backend {
namespace {

wire::ApReport report_for(std::uint32_t ap, std::int64_t ts = 1000) {
  wire::ApReport r;
  r.ap_id = ap;
  r.timestamp_us = ts;
  return r;
}

TEST(Poller, HarvestsAcrossTunnels) {
  ReportStore store;
  Poller poller(store);
  Tunnel t1(ApId{1});
  Tunnel t2(ApId{2});
  poller.attach(t1);
  poller.attach(t2);
  t1.enqueue(frame_report(report_for(1)));
  t2.enqueue(frame_report(report_for(2)));
  t2.enqueue(frame_report(report_for(2, 2000)));
  poller.poll_all();
  EXPECT_EQ(store.report_count(), 3u);
  EXPECT_EQ(store.reports_for(ApId{2}).size(), 2u);
  EXPECT_EQ(poller.stats().frames_harvested, 3u);
  EXPECT_EQ(poller.stats().corrupt_frames, 0u);
}

TEST(Poller, CorruptFramesCountedNotStored) {
  ReportStore store;
  Poller poller(store);
  Tunnel t(ApId{3});
  poller.attach(t);
  auto framed = frame_report(report_for(3));
  framed[framed.size() / 2] ^= 0xFF;  // corrupt mid-payload
  t.enqueue(std::move(framed));
  t.enqueue(frame_report(report_for(3)));
  poller.poll_all();
  EXPECT_EQ(store.report_count(), 1u);
  EXPECT_EQ(poller.stats().corrupt_frames, 1u);
}

TEST(Poller, MalformedReportInValidFrameCounted) {
  ReportStore store;
  Poller poller(store);
  Tunnel t(ApId{4});
  poller.attach(t);
  // A frame with valid CRC around garbage that is not an ApReport.
  std::vector<std::uint8_t> stream;
  const std::vector<std::uint8_t> junk{0x00, 0x13, 0x37};
  wire::append_frame(stream, junk);
  t.enqueue(std::move(stream));
  poller.poll_all();
  EXPECT_EQ(store.report_count(), 0u);
  EXPECT_EQ(poller.stats().malformed_reports, 1u);
}

TEST(Poller, BudgetRegulatesPerCycle) {
  ReportStore store;
  Poller poller(store);
  Tunnel t(ApId{5});
  poller.attach(t);
  for (int i = 0; i < 10; ++i) t.enqueue(frame_report(report_for(5, i)));
  poller.poll_all(3);
  EXPECT_EQ(store.report_count(), 3u);
  poller.poll_all(3);
  poller.poll_all(100);
  EXPECT_EQ(store.report_count(), 10u);
}

TEST(Poller, DisconnectedTunnelSkipped) {
  ReportStore store;
  Poller poller(store);
  Tunnel t(ApId{6});
  poller.attach(t);
  t.enqueue(frame_report(report_for(6)));
  t.disconnect();
  poller.poll_all();
  EXPECT_EQ(store.report_count(), 0u);
  t.reconnect();
  poller.poll_all();
  EXPECT_EQ(store.report_count(), 1u);
}

TEST(Poller, CorruptFrameNotCountedAsHarvested) {
  // A frame that failed its CRC delivered nothing: it must not inflate
  // frames_harvested or bytes_harvested.
  ReportStore store;
  Poller poller(store);
  Tunnel t(ApId{10});
  poller.attach(t);
  auto framed = frame_report(report_for(10));
  framed[framed.size() / 2] ^= 0x01;
  t.enqueue(std::move(framed));
  poller.poll_all();
  EXPECT_EQ(poller.stats().frames_harvested, 0u);
  EXPECT_EQ(poller.stats().bytes_harvested, 0u);
  EXPECT_EQ(poller.stats().corrupt_frames, 1u);
  EXPECT_EQ(poller.stats().reports_stored, 0u);
}

TEST(Poller, PerTunnelCountersAttributeDamage) {
  ReportStore store;
  Poller poller(store);
  Tunnel good(ApId{11});
  Tunnel bad(ApId{12});
  poller.attach(good);
  poller.attach(bad);
  good.enqueue(frame_report(report_for(11)));
  auto framed = frame_report(report_for(12));
  framed[framed.size() / 2] ^= 0x01;
  bad.enqueue(std::move(framed));
  poller.poll_all();
  const TunnelCounters* gc = poller.counters_for(ApId{11});
  const TunnelCounters* bc = poller.counters_for(ApId{12});
  ASSERT_NE(gc, nullptr);
  ASSERT_NE(bc, nullptr);
  EXPECT_EQ(gc->reports_stored, 1u);
  EXPECT_EQ(gc->corrupt_frames, 0u);
  EXPECT_EQ(gc->backoff_level, 0);
  EXPECT_EQ(bc->corrupt_frames, 1u);
  EXPECT_EQ(bc->reports_stored, 0u);
  EXPECT_EQ(bc->backoff_level, 1);
  EXPECT_EQ(poller.counters_for(ApId{999}), nullptr);
}

TEST(Poller, RepeatedCorruptionBacksOffThenQuarantines) {
  ReportStore store;
  Poller poller(store);
  Tunnel t(ApId{13});
  poller.attach(t);
  auto corrupt_frame = [] {
    auto framed = frame_report(report_for(13));
    framed[framed.size() / 2] ^= 0x01;
    return framed;
  };
  // Keep the device spewing garbage; the poller should poll it less and
  // less instead of hammering it every cycle.
  for (int cycle = 0; cycle < 40; ++cycle) {
    if (t.queued() == 0) t.enqueue(corrupt_frame());
    poller.poll_all();
  }
  const TunnelCounters* tc = poller.counters_for(ApId{13});
  ASSERT_NE(tc, nullptr);
  EXPECT_TRUE(tc->quarantined);
  EXPECT_EQ(tc->backoff_level, 4);
  EXPECT_GT(tc->cycles_backed_off, 10u);
  EXPECT_GT(poller.stats().polls_skipped_backoff, 10u);
  // One clean poll lifts the quarantine. Drain the stale corrupt frame the
  // quarantine left queued so the next poll sees only clean traffic.
  (void)t.poll();
  t.enqueue(frame_report(report_for(13)));
  poller.poll_all(/*per_tunnel_budget=*/64, /*ignore_backoff=*/true);
  EXPECT_FALSE(poller.counters_for(ApId{13})->quarantined);
  EXPECT_EQ(poller.counters_for(ApId{13})->backoff_level, 0);
}

TEST(Poller, QuarantineReleasePinsCounterSequence) {
  // Pins the exact backoff ladder through quarantine and release: each
  // corrupt poll doubles the punishment window ((1 << level) - 1 skipped
  // cycles), one clean poll resets everything, and none of the skip/backoff
  // counters move again after release.
  ReportStore store;
  Poller poller(store);
  Tunnel t(ApId{15});
  poller.attach(t);
  auto corrupt_frame = [] {
    auto framed = frame_report(report_for(15));
    framed[framed.size() / 2] ^= 0x01;
    return framed;
  };

  // Climb the ladder: feed one corrupt frame per *eligible* cycle (the
  // poller skips the tunnel while backing off, so eligible cycles are
  // spaced (1 << level) - 1 apart).
  int expected_skips = 0;
  for (int level = 1; level <= 4; ++level) {
    t.enqueue(corrupt_frame());
    poller.poll_all();
    const TunnelCounters* tc = poller.counters_for(ApId{15});
    ASSERT_NE(tc, nullptr);
    EXPECT_EQ(tc->backoff_level, level);
    EXPECT_EQ(tc->backoff_remaining, (1 << level) - 1);
    EXPECT_EQ(tc->quarantined, level >= 4);
    // Serve out this level's punishment window exactly.
    for (int skip = 0; skip < (1 << level) - 1; ++skip) poller.poll_all();
    expected_skips += (1 << level) - 1;
    EXPECT_EQ(poller.stats().polls_skipped_backoff,
              static_cast<std::uint64_t>(expected_skips));
    EXPECT_EQ(tc->backoff_remaining, 0);
  }
  EXPECT_EQ(poller.counters_for(ApId{15})->cycles_backed_off,
            static_cast<std::uint64_t>(expected_skips));

  // One clean poll releases the quarantine and zeroes the ladder.
  t.enqueue(frame_report(report_for(15)));
  poller.poll_all();
  const TunnelCounters* tc = poller.counters_for(ApId{15});
  EXPECT_FALSE(tc->quarantined);
  EXPECT_EQ(tc->backoff_level, 0);
  EXPECT_EQ(tc->backoff_remaining, 0);
  EXPECT_EQ(tc->reports_stored, 1u);

  // Post-release cycles poll normally: the skip counters must not move
  // again (a double-counted release would inflate them here).
  for (int i = 0; i < 5; ++i) poller.poll_all();
  EXPECT_EQ(poller.stats().polls_skipped_backoff,
            static_cast<std::uint64_t>(expected_skips));
  EXPECT_EQ(tc->cycles_backed_off, static_cast<std::uint64_t>(expected_skips));
  // And another corruption starts the ladder from the bottom, not from the
  // pre-release level.
  t.enqueue(corrupt_frame());
  poller.poll_all();
  EXPECT_EQ(tc->backoff_level, 1);
  EXPECT_FALSE(tc->quarantined);
}

TEST(Poller, IgnoreBackoffDrainsBackedOffTunnel) {
  ReportStore store;
  Poller poller(store);
  Tunnel t(ApId{14});
  poller.attach(t);
  auto framed = frame_report(report_for(14));
  framed[framed.size() / 2] ^= 0x01;
  t.enqueue(std::move(framed));
  poller.poll_all();  // corrupt -> backed off
  t.enqueue(frame_report(report_for(14, 2000)));
  poller.poll_all();  // skipped: still backing off
  EXPECT_EQ(store.report_count(), 0u);
  EXPECT_EQ(t.queued(), 1u);
  // The final harvest overrides backoff so nothing recoverable strands.
  poller.poll_all(/*per_tunnel_budget=*/64, /*ignore_backoff=*/true);
  EXPECT_EQ(store.report_count(), 1u);
}

TEST(FrameReport, RoundTripsThroughFraming) {
  const auto framed = frame_report(report_for(7, 424242));
  wire::FrameWalker walker(framed);
  const auto payload = walker.next();
  ASSERT_TRUE(payload.has_value());
  EXPECT_FALSE(walker.next().has_value());
  const auto report = wire::decode_report(*payload);
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->ap_id, 7u);
  EXPECT_EQ(report->timestamp_us, 424242);
}

}  // namespace
}  // namespace wlm::backend

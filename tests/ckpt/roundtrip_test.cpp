// Checkpoint round-trip properties.
//
// The contract under test is *identity*: save -> load -> save must emit the
// same bytes (the serializers are canonical), and a restored component must
// behave exactly like the original from the cut onward — same RNG draws,
// same ring-buffer overwrites, same campaign output. Byte equality is the
// strongest cheap oracle we have, and the bit-identical-resume guarantee of
// tests/ckpt/resume_e2e_test.cpp reduces to these pieces.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>

#include "ckpt/campaign.hpp"
#include "ckpt/container.hpp"
#include "ckpt/state.hpp"
#include "classify/tls.hpp"
#include "classify/verdict_cache.hpp"
#include "support/report_store.hpp"
#include "telemetry/export.hpp"

namespace wlm {
namespace {

TEST(CkptContainer, WriterReaderRoundTrip) {
  ckpt::Writer w;
  ckpt::Buf meta;
  meta.str("hello");
  meta.u64(42);
  w.add_section(ckpt::SectionTag::kMeta, meta.take());
  ckpt::Buf s1;
  s1.i64(-7);
  w.add_section(ckpt::SectionTag::kShard, s1.take());
  ckpt::Buf s2;
  s2.f64(2.5);
  w.add_section(ckpt::SectionTag::kShard, s2.take());

  std::vector<std::uint64_t> offsets;
  const auto bytes = w.finish(&offsets);
  ckpt::Reader r;
  const auto err = r.load(bytes);
  ASSERT_FALSE(err) << err.detail;
  ASSERT_EQ(r.sections().size(), 3u);

  // finish() reports where each payload landed in the container.
  ASSERT_EQ(offsets.size(), 3u);
  for (std::size_t i = 0; i < offsets.size(); ++i) {
    const auto payload = r.sections()[i].payload;
    ASSERT_LE(offsets[i] + payload.size(), bytes.size());
    EXPECT_TRUE(std::equal(payload.begin(), payload.end(),
                           bytes.begin() + static_cast<std::ptrdiff_t>(offsets[i])));
  }

  const auto found = r.find(ckpt::SectionTag::kMeta);
  ASSERT_TRUE(found.has_value());
  ckpt::Cursor c(*found);
  EXPECT_EQ(c.str(), "hello");
  EXPECT_EQ(c.u64(), 42u);
  EXPECT_TRUE(c.ok());
  EXPECT_TRUE(c.at_end());

  EXPECT_EQ(r.find_all(ckpt::SectionTag::kShard).size(), 2u);
  EXPECT_FALSE(r.find(ckpt::SectionTag::kConfig).has_value());
}

TEST(CkptContainer, AtomicFileWriteReadsBack) {
  const std::string path = testing::TempDir() + "ckpt_container_io.bin";
  const std::vector<std::uint8_t> bytes{1, 2, 3, 4, 5};
  ASSERT_FALSE(ckpt::write_file_atomic(path, bytes));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  std::vector<std::uint8_t> back;
  ASSERT_FALSE(ckpt::read_file(path, back));
  EXPECT_EQ(back, bytes);
  std::filesystem::remove(path);

  // An unwritable destination is kIo and leaves no temp file behind.
  const std::string missing = testing::TempDir() + "no-such-dir/ckpt.bin";
  EXPECT_EQ(ckpt::write_file_atomic(missing, bytes).status, ckpt::Status::kIo);
  EXPECT_FALSE(std::filesystem::exists(missing + ".tmp"));
  EXPECT_EQ(ckpt::read_file(missing, back).status, ckpt::Status::kIo);
}

TEST(CkptContainer, CursorScalarRoundTrip) {
  ckpt::Buf b;
  b.u64(0);
  b.u64(UINT64_MAX);
  b.i64(INT64_MIN);
  b.f64(-0.0);
  b.f64(1.0 / 3.0);
  b.boolean(true);
  b.boolean(false);
  const auto bytes = b.take();
  ckpt::Cursor c(bytes);
  EXPECT_EQ(c.u64(), 0u);
  EXPECT_EQ(c.u64(), UINT64_MAX);
  EXPECT_EQ(c.i64(), INT64_MIN);
  // -0.0 must round-trip to the exact bit pattern, not just compare equal.
  EXPECT_TRUE(std::signbit(c.f64()));
  EXPECT_EQ(c.f64(), 1.0 / 3.0);
  EXPECT_TRUE(c.boolean());
  EXPECT_FALSE(c.boolean());
  EXPECT_TRUE(c.ok());
  EXPECT_TRUE(c.at_end());
}

// save -> load -> save emits identical bytes (serializer is canonical).
template <typename T, typename SaveFn, typename LoadFn>
void expect_save_load_save_identity(const T& value, T& fresh, SaveFn save, LoadFn load) {
  ckpt::Buf first;
  save(first, value);
  const auto bytes = first.take();
  ckpt::Cursor c(bytes);
  ASSERT_TRUE(load(c, fresh));
  ASSERT_TRUE(c.at_end());
  ckpt::Buf second;
  save(second, fresh);
  EXPECT_EQ(bytes, second.take());
}

TEST(CkptState, RngRestoreContinuesTheExactStream) {
  Rng original(1234);
  // Put the generator mid-phase: normal() caches its Box–Muller pair, and a
  // restore that loses the cache would shift every later normal by one.
  (void)original.next_u64();
  (void)original.normal();

  ckpt::Buf b;
  ckpt::save_rng(b, original.state());
  const auto bytes = b.take();
  ckpt::Cursor c(bytes);
  Rng::State loaded;
  ASSERT_TRUE(ckpt::load_rng(c, loaded));
  ASSERT_TRUE(c.at_end());
  Rng restored(1);
  restored.restore(loaded);

  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(original.next_u64(), restored.next_u64());
    EXPECT_EQ(original.normal(), restored.normal());
    EXPECT_EQ(original.poisson(3.5), restored.poisson(3.5));
  }
}

TEST(CkptState, TunnelRoundTripIsByteStable) {
  backend::Tunnel original(ApId{7}, /*queue_limit=*/4);
  original.enqueue({1, 2, 3});
  original.disconnect();
  original.enqueue({4, 5});
  original.enqueue({6});
  original.enqueue({7});
  original.enqueue({8, 9});  // overflows the 4-frame queue: a drop counts
  backend::Tunnel fresh(ApId{7}, /*queue_limit=*/4);
  expect_save_load_save_identity(
      original, fresh, [](ckpt::Buf& b, const backend::Tunnel& t) { ckpt::save_tunnel(b, t); },
      [](ckpt::Cursor& c, backend::Tunnel& t) { return ckpt::load_tunnel(c, t); });
  EXPECT_EQ(fresh.connected(), original.connected());
  EXPECT_EQ(fresh.pending(), original.pending());
  EXPECT_EQ(fresh.stats().frames_dropped, original.stats().frames_dropped);
}

TEST(CkptState, ClassifierRoundTripIsByteStable) {
  using classify::FlowKey;
  using classify::TwoTierClassifier;

  // Populate the cache through the real classify path: a few TLS flows with
  // distinct keys, some taken past the pin quota (so a hit is recorded) and
  // enough keys to force an eviction at capacity 3.
  TwoTierClassifier original(/*cache_capacity=*/3);
  classify::FlowSample sample;
  sample.dst_port = 443;
  classify::build_client_hello_into("www.netflix.com", 1, sample.first_payload);
  for (std::uint64_t i = 0; i < 5; ++i) {
    const FlowKey key{0xBEEF'0000 + i, 10, 20, static_cast<std::uint16_t>(50'000 + i), 443, 6};
    (void)original.classify(key, sample);
    (void)original.classify(key, sample);  // second fragment: cache hit
  }
  ASSERT_GT(original.cache().stats().hits, 0u);
  ASSERT_GT(original.cache().stats().evictions, 0u);

  TwoTierClassifier fresh(/*cache_capacity=*/3);
  expect_save_load_save_identity(
      original, fresh,
      [](ckpt::Buf& b, const TwoTierClassifier& t) { ckpt::save_classifier(b, t); },
      [](ckpt::Cursor& c, TwoTierClassifier& t) { return ckpt::load_classifier(c, t); });
  EXPECT_EQ(fresh.cache().stats(), original.cache().stats());
  EXPECT_EQ(fresh.slow_path_calls(), original.slow_path_calls());
  EXPECT_EQ(fresh.cache().size(), original.cache().size());

  // The restored cache must behave identically: a pinned flow still hits...
  const FlowKey pinned{0xBEEF'0004, 10, 20, 50'004, 443, 6};
  const auto hits_before = fresh.cache().stats().hits;
  (void)fresh.classify(pinned, sample);
  EXPECT_EQ(fresh.cache().stats().hits, hits_before + 1);
}

TEST(CkptState, StoreRoundTripIsByteStable) {
  backend::ReportStore original;
  for (std::uint32_t ap = 5; ap > 0; --ap) {
    wire::ApReport r;
    r.ap_id = ap;
    r.timestamp_us = 1000 * ap;
    r.usage.push_back(wire::ClientUsage{MacAddress::from_u64(ap), 6, 100, 200});
    original.add(r);
  }
  backend::ReportStore fresh;
  expect_save_load_save_identity(
      original, fresh,
      [](ckpt::Buf& b, const backend::ReportStore& s) { ckpt::save_store(b, s); },
      [](ckpt::Cursor& c, backend::ReportStore& s) { return ckpt::load_store(c, s); });
  EXPECT_EQ(fresh.report_count(), original.report_count());
}

TEST(CkptState, MetricsRoundTripIsByteStable) {
  telemetry::MetricsRegistry original;
  original.counter("requests_total").inc(41);
  original.counter("requests_total", 9).inc(1);
  original.gauge("depth", 3).set(-2.5);
  auto& h = original.histogram("latency", {1.0, 10.0, 100.0});
  h.observe(0.5);
  h.observe(55.0);
  h.observe(1e9);
  telemetry::MetricsRegistry fresh;
  expect_save_load_save_identity(
      original, fresh,
      [](ckpt::Buf& b, const telemetry::MetricsRegistry& m) { ckpt::save_metrics(b, m); },
      [](ckpt::Cursor& c, telemetry::MetricsRegistry& m) {
        return ckpt::load_metrics(c, m);
      });
  EXPECT_EQ(telemetry::to_prometheus(fresh), telemetry::to_prometheus(original));
}

TEST(CkptState, RecorderRoundTripAfterRingWrap) {
  telemetry::FlightRecorder original(/*capacity=*/8);
  for (std::uint64_t i = 0; i < 21; ++i) {  // wraps the 8-slot ring twice
    telemetry::TraceSpan span;
    span.kind = telemetry::SpanKind::kPoll;
    span.entity = i;
    span.start_us = span.end_us = static_cast<std::int64_t>(i) * 10;
    original.record(span);
  }
  telemetry::FlightRecorder fresh(/*capacity=*/8);
  expect_save_load_save_identity(
      original, fresh,
      [](ckpt::Buf& b, const telemetry::FlightRecorder& r) { ckpt::save_recorder(b, r); },
      [](ckpt::Cursor& c, telemetry::FlightRecorder& r) {
        return ckpt::load_recorder(c, r);
      });
  // The restored ring must overwrite the same slots in the same order.
  for (std::uint64_t i = 21; i < 27; ++i) {
    telemetry::TraceSpan span;
    span.kind = telemetry::SpanKind::kReboot;
    span.entity = i;
    original.record(span);
    fresh.record(span);
    EXPECT_EQ(original.snapshot(), fresh.snapshot());
    EXPECT_EQ(original.dropped(), fresh.dropped());
  }
}

TEST(CkptState, WorldConfigRoundTripIsByteStable) {
  sim::WorldConfig original;
  original.fleet.epoch = deploy::Epoch::kJan2015;
  original.fleet.network_count = 17;
  original.fleet.seed = 99;
  original.seed = 100;
  original.client_scale = 0.37;
  original.faults.flap_fraction = 0.05;
  original.faults.outage_rate_per_week = 2.0;
  original.faults.corrupt_probability = 0.01;
  original.faults.tunnel_queue_limit = 64;
  sim::WorldConfig fresh;
  expect_save_load_save_identity(
      original, fresh,
      [](ckpt::Buf& b, const sim::WorldConfig& cfg) { ckpt::save_world_config(b, cfg); },
      [](ckpt::Cursor& c, sim::WorldConfig& cfg) {
        return ckpt::load_world_config(c, cfg);
      });
  EXPECT_EQ(fresh.fleet.network_count, 17);
  EXPECT_EQ(fresh.faults.tunnel_queue_limit, 64u);
}

sim::WorldConfig small_faulted_config(int threads) {
  sim::WorldConfig config;
  config.fleet.epoch = deploy::Epoch::kJan2015;
  config.fleet.network_count = 5;
  config.fleet.seed = 21;
  config.seed = 22;
  config.client_scale = 0.25;
  config.threads = threads;
  config.faults.outage_rate_per_week = 2.0;
  config.faults.outage_mean_hours = 10.0;
  config.faults.reboot_rate_per_week = 1.0;
  config.faults.corrupt_probability = 0.02;
  config.faults.tunnel_queue_limit = 64;
  return config;
}

TEST(CkptCampaign, SaveLoadSaveIsIdentity) {
  sim::FleetRunner runner(small_faulted_config(2));
  runner.run_usage_week();
  runner.harvest();
  ckpt::CampaignProgress progress;
  progress.label = "roundtrip";
  progress.phases_done = {"usage_week", "harvest"};
  const auto bytes = ckpt::save_campaign(runner, progress);

  // Restore at several worker counts: the rebuild fans out across the pool,
  // and none of that may leak into the state the checkpoint carries.
  for (const int threads : {1, 2, 8}) {
    ckpt::RestoredCampaign restored;
    const auto err = ckpt::restore_campaign(bytes, threads, restored);
    ASSERT_FALSE(err) << "threads " << threads << ": " << err.detail;
    EXPECT_EQ(restored.progress.label, "roundtrip");
    ASSERT_EQ(restored.progress.phases_done.size(), 2u);
    EXPECT_DOUBLE_EQ(restored.runner->campaign_sim_hours(), runner.campaign_sim_hours());

    // Identity: the restored runner re-serializes to the exact same container.
    EXPECT_EQ(ckpt::save_campaign(*restored.runner, restored.progress), bytes)
        << "threads " << threads;
  }
}

TEST(CkptCampaign, CheckpointBytesIdenticalAcrossJobs) {
  ckpt::CampaignProgress progress;
  progress.label = "jobs";
  progress.phases_done = {"usage_week"};
  std::vector<std::uint8_t> first;
  for (const int threads : {1, 4}) {
    sim::FleetRunner runner(small_faulted_config(threads));
    runner.run_usage_week();
    auto bytes = ckpt::save_campaign(runner, progress);
    if (first.empty()) {
      first = std::move(bytes);
    } else {
      EXPECT_EQ(bytes, first) << "checkpoint bytes differ between --jobs 1 and 4";
    }
  }
}

TEST(CkptCampaign, RestoredRunnerFinishesIdentically) {
  // Cut mid-campaign, then drive the original and the restored runner
  // through the same remaining phases: every simulated output must match.
  sim::FleetRunner original(small_faulted_config(1));
  original.run_usage_week();
  const auto bytes = ckpt::save_campaign(original, {});

  ckpt::RestoredCampaign restored;
  const auto err = ckpt::restore_campaign(bytes, /*threads=*/2, restored);
  ASSERT_FALSE(err) << err.detail;

  const SimTime t = SimTime::epoch() + Duration::hours(14);
  original.run_mr16_interference(t);
  original.harvest();
  restored.runner->run_mr16_interference(t);
  restored.runner->harvest();

  EXPECT_EQ(original.loss_ledger(), restored.runner->loss_ledger());
  EXPECT_EQ(telemetry::to_prometheus(original.metrics()),
            telemetry::to_prometheus(restored.runner->metrics()));
  EXPECT_EQ(original.trace(), restored.runner->trace());
  ckpt::Buf a;
  ckpt::save_store(a, test_support::to_store(original.reports()));
  ckpt::Buf b;
  ckpt::save_store(b, test_support::to_store(restored.runner->reports()));
  EXPECT_EQ(a.take(), b.take());
}

}  // namespace
}  // namespace wlm

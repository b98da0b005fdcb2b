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
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "ckpt/campaign.hpp"
#include "ckpt/container.hpp"
#include "ckpt/state.hpp"
#include "classify/tls.hpp"
#include "classify/verdict_cache.hpp"
#include "core/checksum.hpp"
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

  // The container bytes and the payload offsets are pinned: a 16-byte
  // header, then per section a one-byte tag, a one-byte length and a 4-byte
  // CRC ahead of the payload.
  EXPECT_EQ(bytes.size(), 50u);
  EXPECT_EQ(crc32(bytes), 0x7cb568ccu) << std::hex << crc32(bytes);
  EXPECT_EQ(offsets, (std::vector<std::uint64_t>{22, 35, 42}));

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

TEST(CkptContainer, FramedSizeReservesTheExactContainer) {
  // framed_size is what add_section appends, so a writer reserved for the
  // sum of its sections ends with no spare capacity: a smaller figure would
  // force a reallocation, a larger one would leave bytes unused.
  const std::vector<std::pair<ckpt::SectionTag, std::size_t>> sections = {
      {ckpt::SectionTag::kMeta, 0},
      {ckpt::SectionTag::kShard, 127},
      {ckpt::SectionTag::kTsdbSegments, 128},
      {ckpt::SectionTag::kFleetStore, 20000}};
  std::size_t framed = 0;
  for (const auto& [tag, size] : sections) framed += ckpt::Writer::framed_size(tag, size);
  ckpt::Writer w;
  w.reserve(framed);
  for (const auto& [tag, size] : sections) {
    w.add_section(tag, std::vector<std::uint8_t>(size, 7));
  }
  const auto bytes = w.finish();
  EXPECT_EQ(bytes.size(), 16 + framed);
  EXPECT_EQ(bytes.capacity(), bytes.size());
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

TEST(CkptContainer, RangedReadsLatchAndRefuseStopsWithoutLatching) {
  ckpt::Buf b;
  b.u64(300);   // does not fit a uint8_t
  b.u64(17);    // outside [1, 16]
  b.f64(std::nan(""));
  b.u64(5);
  const auto bytes = b.take();
  {
    ckpt::Cursor c(bytes);
    std::uint8_t small = 9;
    c.u64(small);
    EXPECT_FALSE(c.ok());
    EXPECT_EQ(small, 9u);  // a failed read leaves the field untouched
  }
  {
    ckpt::Cursor c(bytes);
    std::uint64_t wide = 0;
    c.u64(wide);
    EXPECT_EQ(wide, 300u);
    int hops = 0;
    c.u64(hops, 1, 16);
    EXPECT_FALSE(c.ok());
  }
  {
    ckpt::Cursor c(bytes);
    std::uint64_t skip = 0;
    c.u64(skip);
    c.u64(skip);
    double d = 1.0;
    c.f64(d, -10.0, 10.0);  // NaN is outside every range
    EXPECT_FALSE(c.ok());
    EXPECT_EQ(d, 1.0);
  }
  {
    // refuse() stops the load but keeps ok(): the first verdict stands.
    ckpt::Cursor c(bytes);
    c.refuse();
    EXPECT_TRUE(c.ok());
    EXPECT_FALSE(c.live());
    std::uint64_t v = 7;
    c.u64(v);
    EXPECT_EQ(v, 7u);
    c.fail();
    EXPECT_TRUE(c.ok());
    EXPECT_FALSE(c.at_end());
  }
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
  ckpt::save(b, original);
  const auto bytes = b.take();
  ckpt::Cursor c(bytes);
  Rng restored(1);
  ASSERT_TRUE(ckpt::load(c, restored));
  ASSERT_TRUE(c.at_end());

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
      original, fresh, [](ckpt::Buf& b, const backend::Tunnel& t) { ckpt::save(b, t); },
      [](ckpt::Cursor& c, backend::Tunnel& t) { return ckpt::load(c, t); });
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
      [](ckpt::Buf& b, const TwoTierClassifier& t) { ckpt::save(b, t); },
      [](ckpt::Cursor& c, TwoTierClassifier& t) { return ckpt::load(c, t); });
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
      [](ckpt::Buf& b, const backend::ReportStore& s) { ckpt::save(b, s); },
      [](ckpt::Cursor& c, backend::ReportStore& s) { return ckpt::load(c, s); });
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
      [](ckpt::Buf& b, const telemetry::MetricsRegistry& m) { ckpt::save(b, m); },
      [](ckpt::Cursor& c, telemetry::MetricsRegistry& m) {
        return ckpt::load(c, m);
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
      [](ckpt::Buf& b, const telemetry::FlightRecorder& r) { ckpt::save(b, r); },
      [](ckpt::Cursor& c, telemetry::FlightRecorder& r) {
        return ckpt::load(c, r);
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
      [](ckpt::Buf& b, const sim::WorldConfig& cfg) { ckpt::save(b, cfg); },
      [](ckpt::Cursor& c, sim::WorldConfig& cfg) {
        return ckpt::load(c, cfg);
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

/// A campaign whose vault holds spilled segments (the usage week, forced
/// out), resident ones (MR16, under a ceiling it stays within) and the
/// placeholders of one dropped network.
std::unique_ptr<sim::FleetRunner> spilled_campaign(const std::string& spill_dir) {
  std::filesystem::remove_all(spill_dir);
  sim::WorldConfig config = small_faulted_config(2);
  config.mem_ceiling_mb = 1;
  config.spill_dir = spill_dir;
  auto runner = std::make_unique<sim::FleetRunner>(config);
  runner->run_usage_week();
  tsdb::FleetStore& store = runner->fleet_tsdb();
  store.set_mem_ceiling(1);
  EXPECT_FALSE(store.maybe_spill());
  store.set_mem_ceiling(std::uint64_t{1} << 20);
  runner->run_mr16_interference(SimTime::epoch() + Duration::hours(14));
  store.drop_network(runner->shards()[1]->id().value());
  EXPECT_GT(store.stats().spilled_bytes, 0u);
  EXPECT_GT(store.stats().resident_bytes, 0u);
  return runner;
}

/// One live vault segment as the vault describes it.
struct VaultSegment {
  std::uint32_t network_id = 0;
  std::uint32_t batch_seq = 0;
  std::uint64_t n_reports = 0;
  std::vector<std::uint8_t> bytes;
  bool operator==(const VaultSegment&) const = default;
};

std::vector<VaultSegment> live_segments(const tsdb::FleetStore& store) {
  std::vector<VaultSegment> out;
  const auto err = store.for_each_segment([&](std::size_t i, std::span<const std::uint8_t> b) {
    const auto info = store.info(i);
    out.push_back({info.network_id, info.batch_seq, info.n_reports, {b.begin(), b.end()}});
  });
  EXPECT_FALSE(err) << err.detail;
  return out;
}

TEST(CkptCampaign, RestoreReproducesTheVaultSegmentForSegment) {
  const auto runner = spilled_campaign(testing::TempDir() + "vault_segments");
  const tsdb::FleetStore& vault = runner->fleet_tsdb();
  const auto original = live_segments(vault);
  ASSERT_FALSE(original.empty());
  ASSERT_LT(original.size(), vault.segment_count()) << "the dropped network left no placeholder";

  ckpt::RestoredCampaign restored;
  const auto err = ckpt::restore_campaign(ckpt::save_campaign(*runner, {}), 1, restored);
  ASSERT_FALSE(err) << err.detail;
  const tsdb::FleetStore& adopted = restored.runner->fleet_tsdb();
  EXPECT_TRUE(live_segments(adopted) == original)
      << "the restored vault differs from the saved one, segment for segment";
  EXPECT_EQ(adopted.stats().reports, vault.stats().reports);
}

TEST(CkptCampaign, SpillFileLostBeforeSaveFailsTheRestore) {
  // A spilled segment that cannot be read back at save time must not
  // vanish silently from the checkpoint: the restore fails instead.
  const std::string dir = testing::TempDir() + "lost_spill";
  const auto runner = spilled_campaign(dir);
  std::vector<std::filesystem::path> spills;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().filename().string().starts_with("tsdb_spill_")) {
      spills.push_back(entry.path());
    }
  }
  ASSERT_FALSE(spills.empty());
  std::sort(spills.begin(), spills.end());
  ASSERT_TRUE(std::filesystem::remove(spills.front()));

  ckpt::RestoredCampaign out;
  const auto err = ckpt::restore_campaign(ckpt::save_campaign(*runner, {}), 1, out);
  EXPECT_TRUE(err) << "a checkpoint that lost a spilled segment restored";
  EXPECT_EQ(out.runner, nullptr);
}

TEST(CkptCampaign, VaultTravelsAsOneSegmentSectionPerLiveSegment) {
  // The checkpoint frames the vault as a spill file does: a two-field
  // summary, then each live segment's sealed bytes as its own section, in
  // vault order, between the config and the fleet telemetry.
  const auto runner = spilled_campaign(testing::TempDir() + "vault_sections");
  const tsdb::FleetStore& vault = runner->fleet_tsdb();
  const auto segments = live_segments(vault);
  const auto bytes = ckpt::save_campaign(*runner, {});
  ckpt::Reader r;
  ASSERT_FALSE(r.load(bytes));

  using Tag = ckpt::SectionTag;
  std::vector<Tag> want = {Tag::kMeta, Tag::kConfig, Tag::kFleetStore};
  want.insert(want.end(), segments.size(), Tag::kTsdbSegments);
  want.push_back(Tag::kFleetTelemetry);
  want.insert(want.end(), runner->shards().size(), Tag::kShard);
  want.push_back(Tag::kSupervision);
  std::vector<Tag> tags;
  for (const auto& section : r.sections()) tags.push_back(section.tag);
  EXPECT_EQ(tags, want);

  ckpt::Cursor summary(*r.find(Tag::kFleetStore));
  EXPECT_EQ(summary.u64(), vault.stats().reports);
  EXPECT_EQ(summary.u64(), segments.size());
  EXPECT_TRUE(summary.at_end());
  const auto sections = r.find_all(Tag::kTsdbSegments);
  ASSERT_EQ(sections.size(), segments.size());
  for (std::size_t i = 0; i < sections.size(); ++i) {
    EXPECT_TRUE(std::equal(sections[i].begin(), sections[i].end(), segments[i].bytes.begin(),
                           segments[i].bytes.end()))
        << "segment " << i;
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
  ckpt::save(a, test_support::to_store(original.reports()));
  ckpt::Buf b;
  ckpt::save(b, test_support::to_store(restored.runner->reports()));
  EXPECT_EQ(a.take(), b.take());
}

}  // namespace
}  // namespace wlm

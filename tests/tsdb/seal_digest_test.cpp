// Sealed-segment digest: one CRC over the bytes of every segment the vault
// holds, in vault order, pinned as a constant. The seal must produce these
// exact bytes whatever the worker count, and the vault must hold them in
// fleet order whatever the scheduling.
//
// The campaign turns on faults, mobility and mesh so every column kind is
// sealed: usage rows, utilization, neighbor and client f64 RSSI, probe
// links, mesh hops. Outages leave backlog past the week-end harvest, so the
// final harvest seals a second batch for some networks; the ceiling run
// seals one batch per phase and spills, so its segments are read back from
// spill files.
//
// A second CRC covers what the vault's readers see: the for_each stream,
// a for_each_in window and each AP's report count, folded from the stream
// the way a per-AP reader (backend::HealthMonitor) folds it. The runner
// reads with as many threads as it simulates with, so the read digest is
// pinned across jobs as well.
//
// The ceiling run also pins the CRC of a whole-campaign checkpoint cut
// after the usage week and after the MR16 campaign: the container frames
// every shard, the supervision manifest and the sealed segments, the
// spilled ones read back from their spill files.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "ckpt/campaign.hpp"
#include "core/checksum.hpp"
#include "wire/encoder.hpp"
#include "wire/messages.hpp"
#include "sim/fleet_runner.hpp"

namespace wlm {
namespace {

struct Digest {
  std::uint32_t crc = 0;
  std::uint32_t read_crc = 0;
  std::size_t segments = 0;
  std::size_t multi_batch_networks = 0;
  std::uint64_t spilled = 0;
  // CRC32 of ckpt::save_campaign's bytes, cut after usage_week and after
  // mr16 (ceiling runs only).
  std::uint32_t ckpt_week = 0;
  std::uint32_t ckpt_mr16 = 0;
  // Child rows per column group, so the digest provably covers each kind.
  std::uint64_t usage = 0, neighbors = 0, links = 0, clients = 0, mesh_relayed = 0;
};

sim::WorldConfig digest_config(int threads, std::uint64_t ceiling_mb,
                               const std::string& spill_dir) {
  sim::WorldConfig config;
  config.fleet.network_count = 30;
  config.fleet.seed = 404;
  config.seed = 405;
  config.client_scale = 0.2;
  config.threads = threads;
  config.mem_ceiling_mb = ceiling_mb;
  config.spill_dir = spill_dir;
  config.faults.outage_rate_per_week = 1.0;
  config.faults.outage_mean_hours = 30.0;
  config.faults.reboot_rate_per_week = 0.5;
  config.faults.corrupt_probability = 0.02;
  config.mobility.enabled = true;
  config.mesh.mesh_fraction = 0.4;
  return config;
}

std::uint32_t read_digest(const backend::ReportSource& source) {
  std::uint32_t crc = 0;
  const auto add_report = [&crc](const wire::ApReport& r) {
    wire::Encoder encoder;
    wire::encode_report_into(r, encoder);
    crc = crc32_update(crc, encoder.bytes());
  };
  const auto add_u64 = [&crc](std::uint64_t v) {
    crc = crc32_update(crc, std::span(reinterpret_cast<const std::uint8_t*>(&v), sizeof v));
  };
  source.for_each(add_report);
  add_u64(~0ULL);
  source.for_each_in(SimTime::epoch() + Duration::days(1), SimTime::epoch() + Duration::days(4),
                     add_report);
  add_u64(~0ULL);
  // One AP's reports are contiguous in the stream (ReportSource contract).
  std::uint64_t ap = 0;
  std::uint64_t count = 0;
  source.for_each([&](const wire::ApReport& r) {
    if (count > 0 && r.ap_id != ap) {
      add_u64(ap);
      add_u64(count);
      count = 0;
    }
    ap = r.ap_id;
    ++count;
  });
  if (count > 0) {
    add_u64(ap);
    add_u64(count);
  }
  return crc;
}

Digest run_digest(int threads, std::uint64_t ceiling_mb, const std::string& spill_dir) {
  sim::FleetRunner runner(digest_config(threads, ceiling_mb, spill_dir));
  const auto checkpoint_crc = [&runner] {
    return crc32(ckpt::save_campaign(runner, ckpt::CampaignProgress{}));
  };
  Digest d;
  const SimTime noon = SimTime::epoch() + Duration::hours(14);
  runner.run_usage_week();
  if (ceiling_mb > 0) d.ckpt_week = checkpoint_crc();
  runner.harvest(sim::HarvestMode::kWeekEnd);
  runner.snapshot_clients(noon);
  runner.run_mr16_interference(noon);
  if (ceiling_mb > 0) d.ckpt_mr16 = checkpoint_crc();
  runner.run_mr18_scan(noon, 14.0);
  runner.run_link_windows(noon);
  runner.harvest(sim::HarvestMode::kFinal);

  const tsdb::FleetStore& vault = runner.fleet_tsdb();
  d.segments = vault.segment_count();
  d.spilled = vault.stats().segments_spilled;
  for (std::size_t i = 0; i < vault.segment_count(); ++i) {
    std::vector<std::uint8_t> bytes;
    EXPECT_FALSE(vault.segment_bytes(i, bytes)) << "segment " << i;
    // Everything but the 4-byte trailer: the trailer is a CRC of the bytes
    // before it, and a CRC over data plus its own CRC is a constant, so a
    // digest of whole segments would see only their lengths.
    d.crc = crc32_update(d.crc, std::span(bytes).first(bytes.size() - 4));
    if (vault.info(i).batch_seq == 1) ++d.multi_batch_networks;
    EXPECT_FALSE(tsdb::SegmentReader::for_each(bytes, [&d](wire::ApReport&& r) {
      d.usage += r.usage.size();
      d.neighbors += r.neighbors.size();
      d.links += r.links.size();
      d.clients += r.clients.size();
      if (r.mesh_hops > 0) ++d.mesh_relayed;
    })) << "segment " << i;
  }
  d.read_crc = read_digest(runner.reports());
  EXPECT_FALSE(vault.last_error()) << vault.last_error().detail;
  return d;
}

// Pinned at the serial-seal implementation; any byte of any segment, or
// the order the vault holds them in, moves these.
constexpr std::uint32_t kClassicDigest = 0xb0111ec0;
constexpr std::uint32_t kStreamingDigest = 0x54698462;
// Pinned at the serial read: the reports, their order and the per-AP
// batches any ReportSource consumer sees.
constexpr std::uint32_t kClassicRead = 0x4d160f44;
constexpr std::uint32_t kStreamingRead = 0x6bfc3a17;
// Pinned at checkpoint format v8: the checkpoint cut after each campaign
// under the ceiling, at any worker count.
constexpr std::uint32_t kCkptAfterWeek = 0x2a060a52;
constexpr std::uint32_t kCkptAfterMr16 = 0x096e49a5;

void expect_every_column_kind(const Digest& d) {
  EXPECT_GT(d.usage, 0u);
  EXPECT_GT(d.neighbors, 0u);
  EXPECT_GT(d.links, 0u);
  EXPECT_GT(d.clients, 0u);
  EXPECT_GT(d.mesh_relayed, 0u);
}

TEST(SealDigest, ClassicHarvestSegmentsArePinnedAcrossJobs) {
  const Digest serial = run_digest(1, 0, ".");
  expect_every_column_kind(serial);
  EXPECT_GT(serial.segments, 30u);
  EXPECT_GT(serial.multi_batch_networks, 0u) << "no network sealed a second batch";
  EXPECT_EQ(serial.spilled, 0u);
  EXPECT_EQ(serial.crc, kClassicDigest) << std::hex << serial.crc;
  const Digest parallel = run_digest(4, 0, ".");
  EXPECT_EQ(parallel.segments, serial.segments);
  EXPECT_EQ(parallel.crc, kClassicDigest) << std::hex << parallel.crc;
  EXPECT_EQ(serial.read_crc, kClassicRead) << std::hex << serial.read_crc;
  EXPECT_EQ(parallel.read_crc, kClassicRead) << std::hex << parallel.read_crc;
}

TEST(SealDigest, CeilingHarvestSegmentsArePinnedAcrossJobs) {
  const std::string spill_dir = testing::TempDir() + "seal_digest_spill";
  const Digest serial = run_digest(1, 1, spill_dir);
  expect_every_column_kind(serial);
  EXPECT_GT(serial.segments, 60u);
  EXPECT_GT(serial.spilled, 0u) << "the ceiling never pressed";
  EXPECT_EQ(serial.crc, kStreamingDigest) << std::hex << serial.crc;
  const Digest parallel = run_digest(4, 1, spill_dir + "4");
  EXPECT_EQ(parallel.segments, serial.segments);
  EXPECT_EQ(parallel.crc, kStreamingDigest) << std::hex << parallel.crc;
  EXPECT_EQ(serial.read_crc, kStreamingRead) << std::hex << serial.read_crc;
  EXPECT_EQ(parallel.read_crc, kStreamingRead) << std::hex << parallel.read_crc;
  for (const Digest* run : {&serial, &parallel}) {
    EXPECT_EQ(run->ckpt_week, kCkptAfterWeek) << std::hex << run->ckpt_week;
    EXPECT_EQ(run->ckpt_mr16, kCkptAfterMr16) << std::hex << run->ckpt_mr16;
  }
}

}  // namespace
}  // namespace wlm

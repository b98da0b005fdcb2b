// Pinned per-section mutant digest: the checkpoint loaders' full verdict
// table, folded into one constant per section tag.
//
// One campaign fills every section and every block of the shard sections:
// faults (outages, reboots, corruption, an OOM threshold), mobility, mesh,
// one network quarantined through a `poller.poll` failpoint, and a cut
// after a harvest plus one later phase, so both the fleet store and the
// shard stores hold reports. Seeded mutants each edit one section payload
// (xor a byte; set a byte to 0x00, 0x7f, 0x80 or 0xff; cut the payload
// short; insert a byte) and are resealed through ckpt::Writer, so the
// container's CRCs pass and only the semantic validators can object.
//
// For each tag the digest folds every mutant's Status, its detail string,
// and, when the mutant restored, a CRC of the restored campaign saved
// again. A change to any field order, range check, error kind or
// rebuilt-world check moves a constant. Tags that repeat (kShard, and
// kTsdbSegments, one section per vault segment) mutate one of their
// sections, picked by the seeded stream.
//
// Re-pin only for a deliberate change to what a loader accepts or how it
// classifies a failure, and say in the change log which tags moved and how
// many mutants changed outcome.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "ckpt/campaign.hpp"
#include "ckpt/container.hpp"
#include "core/checksum.hpp"
#include "core/rng.hpp"
#include "failsafe/failpoint.hpp"

namespace wlm {
namespace {

constexpr int kMutantsPerTag = 600;
constexpr std::size_t kTags = 7;

struct ScopedDisarm {
  ScopedDisarm() { failsafe::failpoints().disarm_all(); }
  ~ScopedDisarm() { failsafe::failpoints().disarm_all(); }
};

std::vector<std::uint8_t> campaign_checkpoint() {
  sim::WorldConfig config;
  config.fleet.network_count = 4;
  config.fleet.seed = 71;
  config.seed = 72;
  config.client_scale = 0.2;
  config.faults.outage_rate_per_week = 2.0;
  config.faults.outage_mean_hours = 12.0;
  config.faults.reboot_rate_per_week = 1.0;
  config.faults.corrupt_probability = 0.02;
  config.faults.oom_neighbor_threshold = 40;
  config.mobility.enabled = true;
  config.mobility.steps_per_week = 24;
  config.mesh.mesh_fraction = 0.5;
  config.supervision.max_shard_retries = 1;
  config.supervision.capture_checkpoints = true;

  sim::FleetRunner probe(config);
  const std::uint64_t victim = probe.shards().at(1)->id().value();
  EXPECT_TRUE(failsafe::failpoints().arm_list("site=poller.poll,net=" +
                                               std::to_string(victim) + ",action=throw"));
  sim::FleetRunner runner(config);
  runner.run_usage_week();
  runner.harvest(sim::HarvestMode::kFinal);
  failsafe::failpoints().disarm_all();
  runner.run_mr16_interference(SimTime::epoch() + Duration::hours(14));

  EXPECT_FALSE(runner.supervisor().manifest().incidents.empty());
  EXPECT_GT(runner.fleet_tsdb().stats().reports, 0u);
  std::size_t shard_reports = 0;
  for (const auto& shard : runner.shards()) shard_reports += shard->store().report_count();
  EXPECT_GT(shard_reports, 0u);

  ckpt::CampaignProgress progress;
  progress.label = "mutant-digest";
  progress.phases_done = {"usage_week", "harvest", "mr16"};
  return ckpt::save_campaign(runner, progress);
}

/// Half the edits land anywhere in the payload; the rest favour its head
/// (ids, RNG words, counts) and its tail (a shard's classifier, mobility and
/// mesh blocks), which uniform positions in a shard payload dominated by
/// link fading state would rarely reach.
std::size_t pick_position(std::size_t size, Rng& rng) {
  std::size_t lo = 0;
  std::size_t span = size;
  switch (rng.next_u64() % 4) {
    case 2: span = std::min<std::size_t>(size, 512); break;
    case 3:
      span = std::min<std::size_t>(size, 4096);
      lo = size - span;
      break;
    default: break;
  }
  return lo + static_cast<std::size_t>(rng.next_u64() % span);
}

std::vector<std::uint8_t> mutate(std::vector<std::uint8_t> p, Rng& rng) {
  const std::uint64_t op = p.empty() ? 3 : rng.next_u64() % 4;
  const std::size_t pos = p.empty() ? 0 : pick_position(p.size(), rng);
  switch (op) {
    case 0:
      p[pos] ^= static_cast<std::uint8_t>(1 + rng.next_u64() % 255);
      break;
    case 1: {
      constexpr std::array<std::uint8_t, 4> kValues = {0x00, 0x7f, 0x80, 0xff};
      p[pos] = kValues[rng.next_u64() % kValues.size()];
      break;
    }
    case 2:
      p.resize(pos);
      break;
    default:
      p.insert(p.begin() + static_cast<std::ptrdiff_t>(pos + rng.next_u64() % 2),
               static_cast<std::uint8_t>(rng.next_u64()));
      break;
  }
  return p;
}

struct TagDigest {
  std::uint32_t crc = 0;
  std::array<int, 8> by_status{};  // indexed by ckpt::Status
};

std::uint32_t fold(std::uint32_t crc, std::span<const std::uint8_t> bytes) {
  return crc32_update(crc, bytes);
}

TagDigest digest_tag(const ckpt::Reader& reader, ckpt::SectionTag tag, Rng& rng) {
  const auto& sections = reader.sections();
  std::vector<std::size_t> targets;
  for (std::size_t i = 0; i < sections.size(); ++i) {
    if (sections[i].tag == tag) targets.push_back(i);
  }
  EXPECT_FALSE(targets.empty());

  TagDigest d;
  for (int m = 0; m < kMutantsPerTag; ++m) {
    const std::size_t target = targets[rng.next_u64() % targets.size()];
    const auto& payload = sections[target].payload;
    auto mutant = mutate({payload.begin(), payload.end()}, rng);

    ckpt::Writer w;
    for (std::size_t i = 0; i < sections.size(); ++i) {
      const auto& s = sections[i];
      if (i == target) {
        w.add_section(s.tag, mutant);
      } else {
        w.add_section(s.tag, {s.payload.begin(), s.payload.end()});
      }
    }

    ckpt::RestoredCampaign out;
    const ckpt::Error err = ckpt::restore_campaign(w.finish(), 1, out);
    ++d.by_status[static_cast<std::size_t>(err.status)];
    const auto status = static_cast<std::uint8_t>(err.status);
    d.crc = fold(d.crc, {&status, 1});
    d.crc = fold(d.crc, {reinterpret_cast<const std::uint8_t*>(err.detail.data()),
                         err.detail.size()});
    if (!err) {
      EXPECT_NE(out.runner, nullptr);
      const std::uint32_t resaved = crc32(ckpt::save_campaign(*out.runner, out.progress));
      const std::array<std::uint8_t, 4> le = {
          static_cast<std::uint8_t>(resaved), static_cast<std::uint8_t>(resaved >> 8),
          static_cast<std::uint8_t>(resaved >> 16), static_cast<std::uint8_t>(resaved >> 24)};
      d.crc = fold(d.crc, le);
    } else {
      EXPECT_EQ(out.runner, nullptr);
    }
  }
  return d;
}

TEST(CkptMutantDigest, EverySectionTagsVerdictsArePinned) {
  ScopedDisarm guard;
  const auto valid = campaign_checkpoint();
  ckpt::Reader reader;
  ASSERT_FALSE(reader.load(valid));

  // Index i pins SectionTag i + 1 (kMeta .. kTsdbSegments).
  constexpr std::array<std::uint32_t, kTags> kPinned = {
      0x68e1ffa2u, 0x6cfa5490u, 0xf895e5fdu, 0xc9172004u,
      0xba8c1fc2u, 0x414848feu, 0xd6749b5bu,
  };
  for (std::size_t t = 0; t < kTags; ++t) {
    const auto tag = static_cast<ckpt::SectionTag>(t + 1);
    Rng rng = Rng::substream(9001, t);
    const TagDigest d = digest_tag(reader, tag, rng);
    std::printf("tag %zu: ok %d malformed %d bad_config %d other %d digest 0x%08xu\n", t + 1,
                d.by_status[static_cast<std::size_t>(ckpt::Status::kOk)],
                d.by_status[static_cast<std::size_t>(ckpt::Status::kMalformed)],
                d.by_status[static_cast<std::size_t>(ckpt::Status::kBadConfig)],
                kMutantsPerTag - d.by_status[0] -
                    d.by_status[static_cast<std::size_t>(ckpt::Status::kMalformed)] -
                    d.by_status[static_cast<std::size_t>(ckpt::Status::kBadConfig)],
                d.crc);
    EXPECT_EQ(d.crc, kPinned[t]) << "section tag " << t + 1;
  }
}

}  // namespace
}  // namespace wlm

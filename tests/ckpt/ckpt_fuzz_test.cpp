// Adversarial checkpoint inputs (style of tests/wire/fuzz_test.cpp).
//
// A checkpoint file crosses a trust boundary: it may come from a different
// binary, a different scenario, a torn write, or a hostile hand. The
// restore path must answer every such input with a typed Error — never a
// crash, hang, out-of-bounds read (ASan/UBSan suites run this file), or a
// partially restored runner.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "ckpt/campaign.hpp"
#include "ckpt/container.hpp"
#include "ckpt/state.hpp"
#include "core/checksum.hpp"
#include "core/rng.hpp"
#include "tsdb/format.hpp"
#include "tsdb/segment.hpp"
#include "wire/varint.hpp"

namespace wlm {
namespace {

std::vector<std::uint8_t> valid_checkpoint() {
  sim::WorldConfig config;
  config.fleet.epoch = deploy::Epoch::kJan2015;
  config.fleet.network_count = 3;
  config.fleet.seed = 31;
  config.seed = 32;
  config.client_scale = 0.2;
  config.faults.outage_rate_per_week = 2.0;
  config.faults.outage_mean_hours = 8.0;
  config.faults.corrupt_probability = 0.02;
  sim::FleetRunner runner(config);
  runner.run_usage_week();
  runner.harvest();
  ckpt::CampaignProgress progress;
  progress.label = "fuzz";
  progress.phases_done = {"usage_week", "harvest"};
  return ckpt::save_campaign(runner, progress);
}

/// The one assertion every adversarial case reduces to: restore either
/// succeeds or reports a typed error, and on error `out` stays empty.
void expect_typed_outcome(std::span<const std::uint8_t> bytes) {
  ckpt::RestoredCampaign out;
  const auto err = ckpt::restore_campaign(bytes, /*threads=*/1, out);
  if (err) {
    EXPECT_NE(err.status, ckpt::Status::kOk);
    EXPECT_EQ(out.runner, nullptr) << "partial restore leaked a runner";
  } else {
    EXPECT_NE(out.runner, nullptr);
  }
}

TEST(CkptFuzz, EveryTruncationFailsTyped) {
  const auto valid = valid_checkpoint();
  // Every prefix of a valid checkpoint, including the empty file. CRC-guarded
  // sections mean any cut lands in kTruncated/kBadCrc/kMalformed territory.
  for (std::size_t cut = 0; cut < valid.size(); ++cut) {
    const std::span<const std::uint8_t> prefix{valid.data(), cut};
    ckpt::RestoredCampaign out;
    const auto err = ckpt::restore_campaign(prefix, 1, out);
    EXPECT_TRUE(err) << "truncation at " << cut << " restored successfully";
    EXPECT_EQ(out.runner, nullptr);
  }
}

TEST(CkptFuzz, BitFlipsNeverCrash) {
  const auto valid = valid_checkpoint();
  Rng rng(101);
  for (int i = 0; i < 400; ++i) {
    auto mutated = valid;
    const int flips = 1 + static_cast<int>(rng.next_u64() % 8);
    for (int f = 0; f < flips; ++f) {
      mutated[rng.next_u64() % mutated.size()] ^=
          static_cast<std::uint8_t>(1 + rng.next_u64() % 255);
    }
    expect_typed_outcome(mutated);
  }
}

TEST(CkptFuzz, SingleBitFlipsInHeaderAndFirstSections) {
  const auto valid = valid_checkpoint();
  // Exhaustive single-bit flips over the structural front of the file:
  // magic, version, section count, first tags/lengths/CRCs.
  const std::size_t front = std::min<std::size_t>(valid.size(), 512);
  for (std::size_t byte = 0; byte < front; ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      auto mutated = valid;
      mutated[byte] ^= static_cast<std::uint8_t>(1u << bit);
      expect_typed_outcome(mutated);
    }
  }
}

TEST(CkptFuzz, RandomGarbageFailsTyped) {
  Rng rng(102);
  for (int i = 0; i < 2000; ++i) {
    std::vector<std::uint8_t> junk(rng.next_u64() % 400);
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.next_u64());
    ckpt::RestoredCampaign out;
    const auto err = ckpt::restore_campaign(junk, 1, out);
    EXPECT_TRUE(err);
    EXPECT_EQ(out.runner, nullptr);
  }
}

TEST(CkptFuzz, WrongMagicAndVersionAreTypedErrors) {
  auto valid = valid_checkpoint();
  {
    auto mutated = valid;
    mutated[0] = 'X';
    ckpt::RestoredCampaign out;
    EXPECT_EQ(ckpt::restore_campaign(mutated, 1, out).status, ckpt::Status::kBadMagic);
  }
  {
    // Version bump: a future format must fail closed, not half-parse.
    auto mutated = valid;
    mutated[8] = 0xFF;
    ckpt::RestoredCampaign out;
    EXPECT_EQ(ckpt::restore_campaign(mutated, 1, out).status, ckpt::Status::kBadVersion);
  }
}

TEST(CkptFuzz, PreviousVersionIsBadVersion) {
  // v8 carries the segment vault as one section per segment; a v7 file
  // must fail closed instead of being parsed with the wrong layout.
  EXPECT_EQ(ckpt::kFormatVersion, 8u);
  auto mutated = valid_checkpoint();
  mutated[8] = 7;  // little-endian u32 version after the 8-byte magic
  mutated[9] = mutated[10] = mutated[11] = 0;
  ckpt::RestoredCampaign out;
  const auto err = ckpt::restore_campaign(mutated, 1, out);
  EXPECT_EQ(err.status, ckpt::Status::kBadVersion) << err.detail;
  EXPECT_EQ(out.runner, nullptr);
}

// Valid container framing around hostile payloads: the CRC passes, so the
// per-section loaders themselves must reject the content.
TEST(CkptFuzz, ValidCrcMalformedSectionsFailTyped) {
  Rng rng(103);
  for (int i = 0; i < 300; ++i) {
    ckpt::Writer w;
    const int sections = static_cast<int>(rng.next_u64() % 6);
    for (int s = 0; s < sections; ++s) {
      std::vector<std::uint8_t> payload(rng.next_u64() % 80);
      for (auto& b : payload) b = static_cast<std::uint8_t>(rng.next_u64());
      w.add_section(static_cast<ckpt::SectionTag>(rng.next_u64() % 8), std::move(payload));
    }
    expect_typed_outcome(w.finish());
  }
}

TEST(CkptFuzz, HugeCountsInsideSectionsDoNotAllocateOrSpin) {
  // A config section whose phase/shard counts claim 2^60 entries in a
  // 30-byte payload: plausible_count must reject before any loop trusts it.
  ckpt::Writer w;
  ckpt::Buf meta;
  meta.str("evil");
  meta.u64(1ULL << 60);  // phases_done count
  w.add_section(ckpt::SectionTag::kMeta, meta.take());
  ckpt::Buf config;
  config.u64(1ULL << 60);
  w.add_section(ckpt::SectionTag::kConfig, config.take());
  expect_typed_outcome(w.finish());
}

// A config section carrying a fault spec that FaultSpec::clamped() would
// rewrite cannot come from a saved campaign (FleetRunner clamps before it
// runs). Resealed with a valid CRC, each such spec must restore as
// kMalformed before reconstruction trusts it: a rate of 1e12 used to ask
// the fault planner for 1e12 intervals per AP.
TEST(CkptFuzz, ConfigFaultSpecTheClampWouldRewriteIsMalformed) {
  const auto valid = valid_checkpoint();
  ckpt::Reader r;
  ASSERT_FALSE(r.load(valid));
  const auto config_payload = r.find(ckpt::SectionTag::kConfig);
  ASSERT_TRUE(config_payload.has_value());
  ckpt::Cursor config_cursor(*config_payload);
  sim::WorldConfig saved;
  ASSERT_TRUE(ckpt::load(config_cursor, saved));

  const auto restore_with = [&](const std::function<void(fault::FaultSpec&)>& edit) {
    sim::WorldConfig config = saved;
    edit(config.faults);
    ckpt::Writer w;
    for (const auto& section : r.sections()) {
      if (section.tag == ckpt::SectionTag::kConfig) {
        ckpt::Buf b;
        ckpt::save(b, config);
        w.add_section(section.tag, b.take());
      } else {
        w.add_section(section.tag, {section.payload.begin(), section.payload.end()});
      }
    }
    ckpt::RestoredCampaign out;
    const auto err = ckpt::restore_campaign(w.finish(), 1, out);
    EXPECT_EQ(out.runner, nullptr);
    return err;
  };

  // The config section itself must reject each spec; a later section
  // tripping over the world the clamped spec rebuilt is not enough.
  const auto expect_config_malformed = [](const ckpt::Error& err) {
    EXPECT_EQ(err.status, ckpt::Status::kMalformed) << err.detail;
    EXPECT_EQ(err.detail, "config section: malformed payload");
  };
  expect_config_malformed(restore_with([](fault::FaultSpec& f) { f.flap_fraction = 2.0; }));
  expect_config_malformed(
      restore_with([](fault::FaultSpec& f) { f.outage_rate_per_week = std::nan(""); }));
  expect_config_malformed(
      restore_with([](fault::FaultSpec& f) { f.outage_rate_per_week = 1e12; }));
}

TEST(CkptFuzz, CrossScenarioResumeFailsClosed) {
  // A structurally perfect checkpoint from scenario A must not restore when
  // its own config is swapped for scenario B's (different seed -> different
  // world): the shard overlay or the ledger cross-check has to catch it.
  const auto valid = valid_checkpoint();
  ckpt::Reader r;
  ASSERT_FALSE(r.load(valid));

  const auto with_config = [&](const sim::WorldConfig& other) {
    ckpt::Writer w;
    for (const auto& section : r.sections()) {
      if (section.tag == ckpt::SectionTag::kConfig) {
        ckpt::Buf b;
        ckpt::save(b, other);
        w.add_section(ckpt::SectionTag::kConfig, b.take());
      } else {
        w.add_section(section.tag, {section.payload.begin(), section.payload.end()});
      }
    }
    return w.finish();
  };

  sim::WorldConfig base;
  base.fleet.epoch = deploy::Epoch::kJan2015;
  base.fleet.network_count = 3;
  base.fleet.seed = 31;
  base.seed = 32;
  base.client_scale = 0.2;
  base.faults.outage_rate_per_week = 2.0;
  base.faults.outage_mean_hours = 8.0;
  base.faults.corrupt_probability = 0.02;

  {
    // Wrong fleet size: the shard-section count check fails closed.
    sim::WorldConfig other = base;
    other.fleet.network_count = 4;
    ckpt::RestoredCampaign out;
    const auto err = ckpt::restore_campaign(with_config(other), 1, out);
    EXPECT_EQ(err.status, ckpt::Status::kBadConfig) << err.detail;
    EXPECT_EQ(out.runner, nullptr);
  }
  {
    // Same world, faults stripped: the rebuilt (disabled) injector rejects
    // the checkpoint's fault-schedule cursors.
    sim::WorldConfig other = base;
    other.faults = {};
    ckpt::RestoredCampaign out;
    const auto err = ckpt::restore_campaign(with_config(other), 1, out);
    EXPECT_TRUE(err) << "resumed a faulted checkpoint into a clean scenario";
    EXPECT_EQ(err.status, ckpt::Status::kBadConfig) << err.detail;
    EXPECT_EQ(out.runner, nullptr);
  }
}

// ---------------------------------------------------------------------------
// v5 mobility-block adversarial vectors. The shard sections now end with the
// walk state (rng, roster counts, per-client motion); every lie in that tail
// must die in the semantic validators, because the container CRC is honest.

std::vector<std::uint8_t> valid_mobility_checkpoint() {
  sim::WorldConfig config;
  config.fleet.epoch = deploy::Epoch::kJan2015;
  config.fleet.network_count = 3;
  config.fleet.seed = 31;
  config.seed = 32;
  config.client_scale = 0.2;
  config.mobility.enabled = true;
  config.mobility.steps_per_week = 24;
  sim::FleetRunner runner(config);
  runner.run_usage_week();
  runner.harvest();
  ckpt::CampaignProgress progress;
  progress.label = "fuzz-mobility";
  progress.phases_done = {"usage_week", "harvest"};
  return ckpt::save_campaign(runner, progress);
}

/// Rebuilds `bytes` with one shard section's payload transformed (Writer
/// recomputes the CRC, so only semantic validation can object).
std::vector<std::uint8_t> with_shard_payload(
    const std::vector<std::uint8_t>& bytes, std::size_t shard_index,
    const std::function<void(std::vector<std::uint8_t>&)>& mutate) {
  ckpt::Reader r;
  EXPECT_FALSE(r.load(bytes));
  ckpt::Writer w;
  std::size_t seen_shards = 0;
  for (const auto& section : r.sections()) {
    std::vector<std::uint8_t> payload{section.payload.begin(), section.payload.end()};
    if (section.tag == ckpt::SectionTag::kShard && seen_shards++ == shard_index) {
      mutate(payload);
    }
    w.add_section(section.tag, std::move(payload));
  }
  return w.finish();
}

TEST(CkptFuzz, TruncatedMobilityTailFailsTyped) {
  // The mobility block sits at the end of each shard section; cutting any
  // number of bytes off that tail (CRC re-stamped over the shorter payload)
  // must be caught by the loader's bounds checks, never by reading past the
  // cursor. Sweep the whole block depth on every shard.
  const auto valid = valid_mobility_checkpoint();
  for (std::size_t shard = 0; shard < 3; ++shard) {
    for (std::size_t cut = 1; cut <= 512; ++cut) {
      const auto mutated = with_shard_payload(
          valid, shard, [&](std::vector<std::uint8_t>& payload) {
            payload.resize(payload.size() - std::min(cut, payload.size()));
          });
      ckpt::RestoredCampaign out;
      const auto err = ckpt::restore_campaign(mutated, 1, out);
      EXPECT_TRUE(err) << "shard " << shard << " tail cut of " << cut
                       << " bytes restored successfully";
      EXPECT_EQ(out.runner, nullptr);
    }
  }
}

TEST(CkptFuzz, MobilityTailTamperWithRecomputedCrcFailsTyped) {
  // Random byte-level lies inside the mobility tail — which is where the
  // roster counts, serving indices, and waypoint coordinates live. A varint
  // flip here claims a different roster shape; the loader must cross-check
  // against the deterministically rebuilt roster and fail typed.
  const auto valid = valid_mobility_checkpoint();
  Rng rng(105);
  for (int i = 0; i < 200; ++i) {
    const std::size_t shard = rng.next_u64() % 3;
    const auto mutated = with_shard_payload(
        valid, shard, [&](std::vector<std::uint8_t>& payload) {
          const std::size_t tail = std::min<std::size_t>(payload.size(), 400);
          const std::size_t pos = payload.size() - 1 - rng.next_u64() % tail;
          payload[pos] ^= static_cast<std::uint8_t>(1 + rng.next_u64() % 255);
        });
    expect_typed_outcome(mutated);
  }
}

TEST(CkptFuzz, MobilityEnabledBitMismatchFailsClosed) {
  // A mobility checkpoint resumed into a mobility-off scenario (or the
  // reverse) would silently drop or invent walk state; both directions must
  // fail as kBadConfig, like any other cross-scenario resume.
  const auto swap_config = [](const std::vector<std::uint8_t>& bytes,
                              const sim::WorldConfig& other) {
    ckpt::Reader r;
    EXPECT_FALSE(r.load(bytes));
    ckpt::Writer w;
    for (const auto& section : r.sections()) {
      if (section.tag == ckpt::SectionTag::kConfig) {
        ckpt::Buf b;
        ckpt::save(b, other);
        w.add_section(ckpt::SectionTag::kConfig, b.take());
      } else {
        w.add_section(section.tag, {section.payload.begin(), section.payload.end()});
      }
    }
    return w.finish();
  };

  sim::WorldConfig base;
  base.fleet.epoch = deploy::Epoch::kJan2015;
  base.fleet.network_count = 3;
  base.fleet.seed = 31;
  base.seed = 32;
  base.client_scale = 0.2;

  {
    // Saved with mobility on, config says off.
    sim::WorldConfig off = base;
    off.mobility.enabled = false;
    off.mobility.steps_per_week = 24;
    ckpt::RestoredCampaign out;
    const auto err =
        ckpt::restore_campaign(swap_config(valid_mobility_checkpoint(), off), 1, out);
    EXPECT_EQ(err.status, ckpt::Status::kBadConfig) << err.detail;
    EXPECT_EQ(out.runner, nullptr);
  }
  {
    // Saved with mobility off, config claims on: the shard sections carry no
    // walk state for the rebuilt roster to restore from.
    sim::WorldConfig on = base;
    on.mobility.enabled = true;
    on.mobility.steps_per_week = 24;
    ckpt::RestoredCampaign out;
    const auto err = ckpt::restore_campaign(swap_config(valid_checkpoint(), on), 1, out);
    EXPECT_TRUE(err) << "mobility-off checkpoint restored into a mobility-on world";
    EXPECT_EQ(out.runner, nullptr);
  }
}

TEST(CkptFuzz, OutOfRangeMobilityKnobsInConfigSectionFailTyped) {
  // The loader validates every mobility knob against the same ranges
  // MobilityConfig::clamped() enforces; a hostile config section claiming
  // speed 500 m/s or 10^7 steps must not construct a world.
  const auto valid = valid_mobility_checkpoint();
  ckpt::Reader r;
  ASSERT_FALSE(r.load(valid));

  sim::WorldConfig hostile;
  hostile.fleet.epoch = deploy::Epoch::kJan2015;
  hostile.fleet.network_count = 3;
  hostile.fleet.seed = 31;
  hostile.seed = 32;
  hostile.client_scale = 0.2;
  hostile.mobility.enabled = true;
  hostile.mobility.steps_per_week = 24;

  const std::vector<std::function<void(mobility::MobilityConfig&)>> cases = {
      [](mobility::MobilityConfig& m) { m.speed_mps = 500.0; },
      [](mobility::MobilityConfig& m) { m.speed_mps = -1.0; },
      [](mobility::MobilityConfig& m) { m.pause_mean_s = 1e12; },
      [](mobility::MobilityConfig& m) { m.steps_per_week = 10'000'000; },
      [](mobility::MobilityConfig& m) { m.steps_per_week = 0; },
      [](mobility::MobilityConfig& m) { m.handoff_settle_steps = 5000; },
      [](mobility::MobilityConfig& m) { m.handoff_hysteresis_db = 400.0; },
      [](mobility::MobilityConfig& m) { m.band_steer_bonus_db = 99.0; },
      [](mobility::MobilityConfig& m) { m.roam_probability = 2.0; },
  };
  for (const auto& poison : cases) {
    sim::WorldConfig other = hostile;
    poison(other.mobility);
    ckpt::Writer w;
    for (const auto& section : r.sections()) {
      if (section.tag == ckpt::SectionTag::kConfig) {
        ckpt::Buf b;
        ckpt::save(b, other);
        w.add_section(ckpt::SectionTag::kConfig, b.take());
      } else {
        w.add_section(section.tag, {section.payload.begin(), section.payload.end()});
      }
    }
    ckpt::RestoredCampaign out;
    const auto err = ckpt::restore_campaign(w.finish(), 1, out);
    EXPECT_TRUE(err) << "out-of-range mobility knob restored successfully";
    EXPECT_EQ(out.runner, nullptr);
  }
}

// ---------------------------------------------------------------------------
// v6 mesh-block adversarial vectors. Shard sections now end with the mesh
// backhaul state (mesh rng, the phase's routing table, per-AP relay busy
// horizons, partition-drop count); the routing table is the juicy target —
// a dangling next-hop index would be an out-of-bounds read at relay time,
// a self-loop an infinite relay walk — so every such lie must die in the
// loader, CRC honesty notwithstanding.

sim::WorldConfig mesh_fuzz_config() {
  sim::WorldConfig config;
  config.fleet.epoch = deploy::Epoch::kJan2015;
  config.fleet.network_count = 3;
  config.fleet.seed = 31;
  config.seed = 32;
  config.client_scale = 0.2;
  config.mesh.mesh_fraction = 0.6;
  return config;
}

std::unique_ptr<sim::FleetRunner> run_mesh_campaign() {
  auto runner = std::make_unique<sim::FleetRunner>(mesh_fuzz_config());
  runner->run_usage_week();
  runner->harvest();
  return runner;
}

std::vector<std::uint8_t> save_mesh_campaign(sim::FleetRunner& runner) {
  ckpt::CampaignProgress progress;
  progress.label = "fuzz-mesh";
  progress.phases_done = {"usage_week", "harvest"};
  return ckpt::save_campaign(runner, progress);
}

std::vector<std::uint8_t> valid_mesh_checkpoint() {
  return save_mesh_campaign(*run_mesh_campaign());
}

TEST(CkptFuzz, TruncatedMeshTailFailsTyped) {
  // The mesh block is the last thing in each shard section; every cut depth
  // through it (CRC re-stamped over the shorter payload) must land in the
  // loader's bounds checks, never past the cursor.
  const auto valid = valid_mesh_checkpoint();
  for (std::size_t shard = 0; shard < 3; ++shard) {
    for (std::size_t cut = 1; cut <= 512; ++cut) {
      const auto mutated = with_shard_payload(
          valid, shard, [&](std::vector<std::uint8_t>& payload) {
            payload.resize(payload.size() - std::min(cut, payload.size()));
          });
      ckpt::RestoredCampaign out;
      const auto err = ckpt::restore_campaign(mutated, 1, out);
      EXPECT_TRUE(err) << "shard " << shard << " mesh tail cut of " << cut
                       << " bytes restored successfully";
      EXPECT_EQ(out.runner, nullptr);
    }
  }
}

TEST(CkptFuzz, MeshTailTamperWithRecomputedCrcFailsTyped) {
  // Random byte lies in the mesh tail — routing-table varints, busy
  // horizons, the partition count. Either the restore succeeds (the flip
  // produced an equally-valid value, e.g. a different partition count) or
  // it fails typed; it must never crash or leak a half-built runner.
  const auto valid = valid_mesh_checkpoint();
  Rng rng(106);
  for (int i = 0; i < 200; ++i) {
    const std::size_t shard = rng.next_u64() % 3;
    const auto mutated = with_shard_payload(
        valid, shard, [&](std::vector<std::uint8_t>& payload) {
          const std::size_t tail = std::min<std::size_t>(payload.size(), 400);
          const std::size_t pos = payload.size() - 1 - rng.next_u64() % tail;
          payload[pos] ^= static_cast<std::uint8_t>(1 + rng.next_u64() % 255);
        });
    expect_typed_outcome(mutated);
  }
}

TEST(CkptFuzz, PoisonedRoutingTableEntriesFailTyped) {
  // Surgical routing-table lies with an honest CRC: serialize a live
  // campaign whose in-memory routing table has been poisoned, then demand
  // the loader reject it. Covers the three classic relay-time disasters —
  // dangling AP index, self-loop, hop-count overflow — plus a gateway
  // mismatch against the deterministically rebuilt membership and a
  // negative relay busy horizon.
  struct Poison {
    const char* name;
    std::function<bool(sim::NetworkShard&)> apply;  // false = no target entry
  };
  const std::vector<Poison> poisons = {
      {"dangling next_hop", [](sim::NetworkShard& shard) {
         for (auto& r : shard.mesh_routes()) {
           if (!r.is_gateway && r.routable) { r.next_hop = 60'000; return true; }
         }
         return false;
       }},
      {"self-loop next_hop", [](sim::NetworkShard& shard) {
         auto& routes = shard.mesh_routes();
         for (std::size_t i = 0; i < routes.size(); ++i) {
           if (!routes[i].is_gateway && routes[i].routable) {
             routes[i].next_hop = static_cast<std::uint32_t>(i);
             return true;
           }
         }
         return false;
       }},
      {"hop-count overflow", [](sim::NetworkShard& shard) {
         for (auto& r : shard.mesh_routes()) {
           if (!r.is_gateway && r.routable) { r.hop_count = 1'000'000; return true; }
         }
         return false;
       }},
      {"path ends at a mesh AP", [](sim::NetworkShard& shard) {
         auto& routes = shard.mesh_routes();
         std::uint32_t mesh_ap = 0;
         bool found = false;
         for (std::size_t i = 0; i < routes.size(); ++i) {
           if (!routes[i].is_gateway) { mesh_ap = static_cast<std::uint32_t>(i); found = true; break; }
         }
         if (!found) return false;
         for (auto& r : routes) {
           if (!r.is_gateway && r.routable) { r.gateway = mesh_ap; return true; }
         }
         return false;
       }},
      {"gateway flag contradicts membership", [](sim::NetworkShard& shard) {
         for (auto& r : shard.mesh_routes()) {
           if (!r.is_gateway) { r.is_gateway = true; return true; }
         }
         return false;
       }},
      {"negative busy horizon", [](sim::NetworkShard& shard) {
         auto& busy = shard.mesh_busy_until_us();
         if (busy.empty()) return false;
         busy[0] = -5;
         return true;
       }},
  };

  for (const auto& poison : poisons) {
    const auto runner = run_mesh_campaign();
    bool applied = false;
    for (const auto& shard : runner->shards()) {
      if (poison.apply(*shard)) { applied = true; break; }
    }
    ASSERT_TRUE(applied) << poison.name << ": no entry to poison at this scale";
    ckpt::RestoredCampaign out;
    const auto err = ckpt::restore_campaign(save_mesh_campaign(*runner), 1, out);
    EXPECT_TRUE(err) << poison.name << " restored successfully";
    EXPECT_EQ(out.runner, nullptr) << poison.name;
  }
}

TEST(CkptFuzz, MeshEnabledBitMismatchFailsClosed) {
  // A mesh checkpoint resumed into a mesh-off scenario (or the reverse)
  // would drop or invent relay state; both directions fail kBadConfig.
  const auto swap_config = [](const std::vector<std::uint8_t>& bytes,
                              const sim::WorldConfig& other) {
    ckpt::Reader r;
    EXPECT_FALSE(r.load(bytes));
    ckpt::Writer w;
    for (const auto& section : r.sections()) {
      if (section.tag == ckpt::SectionTag::kConfig) {
        ckpt::Buf b;
        ckpt::save(b, other);
        w.add_section(ckpt::SectionTag::kConfig, b.take());
      } else {
        w.add_section(section.tag, {section.payload.begin(), section.payload.end()});
      }
    }
    return w.finish();
  };

  {
    // Saved with mesh on, config says off.
    sim::WorldConfig off = mesh_fuzz_config();
    off.mesh.mesh_fraction = 0.0;
    ckpt::RestoredCampaign out;
    const auto err =
        ckpt::restore_campaign(swap_config(valid_mesh_checkpoint(), off), 1, out);
    EXPECT_EQ(err.status, ckpt::Status::kBadConfig) << err.detail;
    EXPECT_EQ(out.runner, nullptr);
  }
  {
    // Saved with mesh off, config claims on: the shard sections carry no
    // relay state for the rebuilt topology to restore from.
    sim::WorldConfig on = mesh_fuzz_config();
    // valid_checkpoint() runs a faulted, mesh-off scenario; mirror it.
    on.faults.outage_rate_per_week = 2.0;
    on.faults.outage_mean_hours = 8.0;
    on.faults.corrupt_probability = 0.02;
    ckpt::RestoredCampaign out;
    const auto err = ckpt::restore_campaign(swap_config(valid_checkpoint(), on), 1, out);
    EXPECT_TRUE(err) << "mesh-off checkpoint restored into a mesh-on world";
    EXPECT_EQ(out.runner, nullptr);
  }
}

TEST(CkptFuzz, OutOfRangeMeshKnobsInConfigSectionFailTyped) {
  // The loader validates every mesh knob against the same ranges
  // MeshConfig::clamped() enforces; a hostile config section claiming a
  // 1.5 mesh fraction or 40 hops must not construct a world.
  const auto valid = valid_mesh_checkpoint();
  ckpt::Reader r;
  ASSERT_FALSE(r.load(valid));

  const std::vector<std::function<void(mesh::MeshConfig&)>> cases = {
      [](mesh::MeshConfig& m) { m.mesh_fraction = 1.5; },
      [](mesh::MeshConfig& m) { m.mesh_fraction = -0.1; },
      [](mesh::MeshConfig& m) { m.max_hops = 0; },
      [](mesh::MeshConfig& m) { m.max_hops = 40; },
      [](mesh::MeshConfig& m) { m.relay_floor_dbm = -200.0; },
      [](mesh::MeshConfig& m) { m.relay_floor_dbm = 0.0; },
      [](mesh::MeshConfig& m) { m.drift_sigma_db = -1.0; },
      [](mesh::MeshConfig& m) { m.drift_sigma_db = 100.0; },
  };
  for (const auto& poison : cases) {
    sim::WorldConfig other = mesh_fuzz_config();
    poison(other.mesh);
    ckpt::Writer w;
    for (const auto& section : r.sections()) {
      if (section.tag == ckpt::SectionTag::kConfig) {
        ckpt::Buf b;
        ckpt::save(b, other);
        w.add_section(ckpt::SectionTag::kConfig, b.take());
      } else {
        w.add_section(section.tag, {section.payload.begin(), section.payload.end()});
      }
    }
    ckpt::RestoredCampaign out;
    const auto err = ckpt::restore_campaign(w.finish(), 1, out);
    EXPECT_TRUE(err) << "out-of-range mesh knob restored successfully";
    EXPECT_EQ(out.runner, nullptr);
  }
}

TEST(CkptFuzz, TamperedSectionWithRecomputedCrcFailsTyped) {
  // Flip payload bytes but fix the CRC by re-framing through the Writer, so
  // only the semantic validators stand between the tamper and a restore.
  const auto valid = valid_checkpoint();
  ckpt::Reader r;
  ASSERT_FALSE(r.load(valid));
  Rng rng(104);
  for (int i = 0; i < 120; ++i) {
    ckpt::Writer w;
    const std::size_t victim = rng.next_u64() % r.sections().size();
    for (std::size_t s = 0; s < r.sections().size(); ++s) {
      std::vector<std::uint8_t> payload{r.sections()[s].payload.begin(),
                                        r.sections()[s].payload.end()};
      if (s == victim && !payload.empty()) {
        payload[rng.next_u64() % payload.size()] ^=
            static_cast<std::uint8_t>(1 + rng.next_u64() % 255);
      }
      w.add_section(r.sections()[s].tag, std::move(payload));
    }
    expect_typed_outcome(w.finish());
  }
}

void append_u32le(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

/// `segment` plus one CRC-valid block under a column id the format does not
/// define, header and trailer resealed: bytes no SegmentWriter seals.
std::vector<std::uint8_t> with_undefined_column(std::span<const std::uint8_t> segment) {
  const std::size_t counts_at = tsdb::kMagic.size() + 12;
  const std::uint8_t* end = segment.data() + segment.size();
  const std::uint8_t* p = segment.data() + counts_at;
  std::array<std::uint64_t, 4> counts{};  // n_reports, n_aps, raw_wire_bytes, n_blocks
  for (auto& c : counts) p = wire::parse_varint(p, end, c);
  EXPECT_NE(p, nullptr);
  counts[3] += 1;
  std::vector<std::uint8_t> out(segment.begin(), segment.begin() + counts_at);
  for (const std::uint64_t c : counts) wire::put_varint(out, c);
  out.insert(out.end(), p, end - 4);  // the blocks, without the trailer
  const std::array<std::uint8_t, 1> payload{9};
  out.push_back(200);  // column id
  out.push_back(static_cast<std::uint8_t>(tsdb::Encoding::kVarint));
  for (const std::uint64_t v : {std::uint64_t{1}, wire::zigzag_encode(9),
                                wire::zigzag_encode(9), std::uint64_t{payload.size()}}) {
    wire::put_varint(out, v);  // rows, min, max, payload length
  }
  out.insert(out.end(), payload.begin(), payload.end());
  append_u32le(out, crc32(payload));
  append_u32le(out, crc32({out.data() + tsdb::kMagic.size(), out.size() - tsdb::kMagic.size()}));
  return out;
}

/// Rebuilds `bytes` with its first segment section passed through `edit`,
/// the container's CRCs resealed.
std::vector<std::uint8_t> with_first_fleet_segment(
    const std::vector<std::uint8_t>& bytes,
    const std::function<std::vector<std::uint8_t>(std::span<const std::uint8_t>)>& edit) {
  ckpt::Reader r;
  EXPECT_FALSE(r.load(bytes));
  ckpt::Writer w;
  bool edited = false;
  for (const auto& section : r.sections()) {
    if (section.tag == ckpt::SectionTag::kTsdbSegments && !edited) {
      w.add_section(section.tag, edit(section.payload));
      edited = true;
    } else {
      w.add_section(section.tag, section.payload);
    }
  }
  EXPECT_TRUE(edited) << "the checkpoint holds no segment";
  return w.finish();
}

TEST(CkptFuzz, FleetSegmentTheWriterWouldNotSealFailsTyped) {
  // Every CRC holds, so only the segment reader's validate() can refuse the
  // adopted segment: broken bytes, so kMalformed, with the reader's verdict
  // in the detail. The unedited rebuild restores, so the edit is what
  // fails.
  const auto valid = valid_checkpoint();
  const auto unedited = [](std::span<const std::uint8_t> s) {
    return std::vector<std::uint8_t>(s.begin(), s.end());
  };
  ckpt::RestoredCampaign same;
  EXPECT_FALSE(ckpt::restore_campaign(with_first_fleet_segment(valid, unedited), 1, same));
  EXPECT_NE(same.runner, nullptr);

  ckpt::RestoredCampaign out;
  const auto err =
      ckpt::restore_campaign(with_first_fleet_segment(valid, with_undefined_column), 1, out);
  EXPECT_EQ(err.status, ckpt::Status::kMalformed) << err.detail;
  EXPECT_EQ(err.detail, std::string("segment 0: ") + tsdb::status_name(tsdb::Status::kMalformed));
  EXPECT_EQ(out.runner, nullptr);
}

/// `segment` filed under network `id`: the header's network id rewritten
/// and the trailer CRC resealed, so validate() still accepts it.
std::vector<std::uint8_t> under_network(std::span<const std::uint8_t> segment, std::uint32_t id) {
  std::vector<std::uint8_t> out(segment.begin(), segment.end() - 4);
  const std::size_t at = tsdb::kMagic.size() + 4;  // behind the version
  for (std::size_t i = 0; i < 4; ++i) out[at + i] = static_cast<std::uint8_t>(id >> (8 * i));
  append_u32le(out, crc32({out.data() + tsdb::kMagic.size(), out.size() - tsdb::kMagic.size()}));
  return out;
}

TEST(CkptFuzz, SegmentOfANetworkTheFleetLacksFailsClosed) {
  // A valid segment of a network the rebuilt fleet does not have: the
  // checkpoint was stitched together, and must not restore its reports.
  const auto valid = valid_checkpoint();
  const auto stitched = with_first_fleet_segment(valid, [](std::span<const std::uint8_t> s) {
    auto out = under_network(s, 999);
    EXPECT_FALSE(tsdb::SegmentReader::validate(out)) << "the rewrite broke the segment";
    return out;
  });
  ckpt::RestoredCampaign out;
  const auto err = ckpt::restore_campaign(stitched, 1, out);
  EXPECT_EQ(err.status, ckpt::Status::kBadConfig) << err.detail;
  EXPECT_EQ(out.runner, nullptr);
}

/// The checkpoint encoding of one verdict-cache entry (state.cpp's field
/// list: the MAC, both addresses, ports plus protocol, verdict, count).
std::vector<std::uint8_t> encoded_entry(const classify::VerdictCache::SavedEntry& e) {
  std::vector<std::uint8_t> out;
  wire::put_varint(out, e.key.client_mac);
  wire::put_varint(out, (std::uint64_t{e.key.src_addr} << 32) | e.key.dst_addr);
  wire::put_varint(out, (std::uint64_t{e.key.src_port} << 32) |
                            (std::uint64_t{e.key.dst_port} << 16) | e.key.protocol);
  wire::put_varint(out, static_cast<std::uint64_t>(e.verdict));
  wire::put_varint(out, e.slow_seen);
  return out;
}

TEST(CkptFuzz, VerdictCacheListingAFlowTwiceFailsTyped) {
  // A cache holding one flow twice cannot come from a saved campaign. Save
  // a shard whose cache holds two flows one MAC bit apart, rewrite the
  // second's key into the first's with the CRC re-stamped, and the
  // classifier's restore must refuse it as malformed.
  sim::WorldConfig config;
  config.fleet.epoch = deploy::Epoch::kJan2015;
  config.fleet.network_count = 3;
  config.fleet.seed = 31;
  config.seed = 32;
  config.client_scale = 0.2;
  sim::FleetRunner runner(config);
  runner.run_usage_week();
  runner.harvest();
  auto& cache = runner.shards()[0]->classifier().cache();
  const classify::VerdictCache::SavedEntry first{
      {0x0a1b2c3d4e5eULL, 0xC0A80001u, 0x08080808u, 40000, 443, 6}, classify::AppId::kMiscWeb, 1};
  auto second = first;
  second.key.client_mac ^= 1;
  ASSERT_TRUE(cache.restore({first, second}, cache.stats()));
  ckpt::CampaignProgress progress;
  progress.label = "fuzz-duplicate-flow";
  progress.phases_done = {"usage_week", "harvest"};
  const auto valid = ckpt::save_campaign(runner, progress);
  ckpt::RestoredCampaign same;
  ASSERT_FALSE(ckpt::restore_campaign(valid, 1, same));

  const auto from = encoded_entry(second);
  const auto to = encoded_entry(first);
  ASSERT_EQ(from.size(), to.size());
  std::size_t rewritten = 0;
  const auto mutated = with_shard_payload(valid, 0, [&](std::vector<std::uint8_t>& payload) {
    for (auto it = std::search(payload.begin(), payload.end(), from.begin(), from.end());
         it != payload.end(); it = std::search(it, payload.end(), from.begin(), from.end())) {
      it = std::copy(to.begin(), to.end(), it);
      ++rewritten;
    }
  });
  ASSERT_EQ(rewritten, 1u);
  ckpt::RestoredCampaign out;
  const auto err = ckpt::restore_campaign(mutated, 1, out);
  EXPECT_EQ(err.status, ckpt::Status::kMalformed) << err.detail;
  EXPECT_EQ(out.runner, nullptr);
}

}  // namespace
}  // namespace wlm

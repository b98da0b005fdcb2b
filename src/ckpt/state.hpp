// Per-component checkpoint serializers: the section payloads campaign.cpp
// assembles, and the component codecs the shard section composes and the
// round-trip tests pin in isolation (tests/ckpt/roundtrip_test.cpp). These
// functions know the *content* of each component and nothing about the
// container or the restore orchestration.
//
// Every save/load pair runs one field list (ckpt/state.cpp), so a type's
// field order is written once. Conventions:
//   - save emits a canonical byte sequence: hash-map-backed components are
//     serialized in sorted key order, so the same logical state always
//     produces the same bytes (the bit-identical-resume contract rides on
//     this);
//   - load returns false on failure and leaves the Cursor saying why: a
//     latched cursor (!ok()) means the bytes are malformed, an intact one
//     that they disagree with the rebuilt world (campaign.cpp maps these to
//     kMalformed and kBadConfig);
//   - each component decodes into a temporary and is applied only after it
//     parsed, but a composite load is not atomic: load_shard_state applies
//     the RNG substreams, tunnels and links before later fields can fail.
//     The all-or-nothing guarantee is restore_campaign's, which hands out
//     no runner on failure;
//   - counts read from the payload are bounded against cursor.remaining()
//     before any loop trusts them (fuzz-input hygiene: a 2^60 count in a
//     40-byte file must not allocate or spin).
#pragma once

#include <vector>

#include "backend/store.hpp"
#include "backend/tunnel.hpp"
#include "ckpt/campaign.hpp"
#include "ckpt/container.hpp"
#include "core/rng.hpp"
#include "failsafe/supervisor.hpp"
#include "fault/loss_ledger.hpp"
#include "sim/fleet_runner.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace wlm::ckpt {

// --- components: one save/load overload pair each ---

// RNG substream position (xoshiro words + cached normal).
void save(Buf& b, const Rng& rng);
[[nodiscard]] bool load(Cursor& c, Rng& rng);

// Device tunnel: connection, counters, queued frames (oldest first).
void save(Buf& b, const backend::Tunnel& tunnel);
[[nodiscard]] bool load(Cursor& c, backend::Tunnel& tunnel);

// Report store, canonical: APs sorted by id, per-AP arrival order
// preserved, each report as its wire encoding. load adds into `store`.
void save(Buf& b, const backend::ReportStore& store);
[[nodiscard]] bool load(Cursor& c, backend::ReportStore& store);

// Metrics registry in sorted order; load adds into `metrics`.
void save(Buf& b, const telemetry::MetricsRegistry& metrics);
[[nodiscard]] bool load(Cursor& c, telemetry::MetricsRegistry& metrics);

// Trace spans; flight recorder (lifetime total + ring contents).
void save(Buf& b, const std::vector<telemetry::TraceSpan>& spans);
[[nodiscard]] bool load(Cursor& c, std::vector<telemetry::TraceSpan>& spans);
void save(Buf& b, const telemetry::FlightRecorder& recorder);
[[nodiscard]] bool load(Cursor& c, telemetry::FlightRecorder& recorder);

// Two-tier classifier: verdict cache contents in FIFO order, cache stats,
// slow-path counter. load refuses more entries than the cache holds.
void save(Buf& b, const classify::TwoTierClassifier& classifier);
[[nodiscard]] bool load(Cursor& c, classify::TwoTierClassifier& classifier);

// World configuration: everything FleetRunner reconstruction needs
// (`threads` is a runtime choice and is NOT serialized).
void save(Buf& b, const sim::WorldConfig& config);
[[nodiscard]] bool load(Cursor& c, sim::WorldConfig& config);

// Degraded-run manifest (supervision incidents; quarantine state is
// rebuilt from the kQuarantined entries on restore).
void save(Buf& b, const failsafe::DegradedRunManifest& manifest);
[[nodiscard]] bool load(Cursor& c, failsafe::DegradedRunManifest& manifest);

// --- sections with their own shape ---

// The kFleetStore section: what the vault's kTsdbSegments sections, one per
// live segment, must add up to on restore.
struct VaultSummary {
  std::uint64_t reports = 0;
  std::uint64_t segments = 0;
};
void save(Buf& b, const VaultSummary& summary);
[[nodiscard]] bool load(Cursor& c, VaultSummary& summary);

// One shard's full mutable state: the campaign container's kShard payload,
// and (the same bytes) the supervision layer's retry snapshots. load
// checks the structure against the rebuilt shard.
void save_shard_state(Buf& b, sim::NetworkShard& shard);
[[nodiscard]] bool load_shard_state(Cursor& c, sim::NetworkShard& shard);

// Campaign progress and the loss-ledger snapshot (the kMeta section).
void save_meta(Buf& b, const CampaignProgress& progress, const fault::LossLedger& ledger);
[[nodiscard]] bool load_meta(Cursor& c, CampaignProgress& progress, fault::LossLedger& ledger);

}  // namespace wlm::ckpt

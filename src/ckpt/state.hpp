// Per-component checkpoint serializers.
//
// One save_x/load_x pair per piece of mutable campaign state, all writing
// through the ckpt::Buf/Cursor primitives. The split from campaign.cpp is
// deliberate: these functions know the *content* of each component and
// nothing about the container or the restore orchestration, so the
// round-trip tests (tests/ckpt/roundtrip_test.cpp) pin each one in
// isolation.
//
// Conventions shared by every pair:
//   - save_x emits a canonical byte sequence: hash-map-backed components
//     are serialized in sorted key order, so the same logical state always
//     produces the same bytes (the bit-identical-resume contract rides on
//     this);
//   - load_x reads through a fail-latching Cursor and returns false on any
//     structural problem, changing NOTHING user-visible on failure — a
//     checkpoint either restores completely or not at all;
//   - counts read from the payload are bounded against cursor.remaining()
//     before any loop trusts them (fuzz-input hygiene: a 2^60 count in a
//     40-byte file must not allocate or spin).
#pragma once

#include <span>
#include <vector>

#include "backend/poller.hpp"
#include "backend/store.hpp"
#include "backend/tunnel.hpp"
#include "ckpt/container.hpp"
#include "core/rng.hpp"
#include "failsafe/supervisor.hpp"
#include "fault/injector.hpp"
#include "fault/loss_ledger.hpp"
#include "fault/spec.hpp"
#include "sim/fleet_runner.hpp"
#include "sim/link.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"
#include "tsdb/fleet_store.hpp"

namespace wlm::ckpt {

// --- RNG substreams ---
void save_rng(Buf& b, const Rng::State& s);
[[nodiscard]] bool load_rng(Cursor& c, Rng::State& out);

// --- mesh-link fading state ---
void save_link(Buf& b, const sim::MeshLink::State& s);
[[nodiscard]] bool load_link(Cursor& c, sim::MeshLink::State& out);

// --- device tunnel: connection, counters, queued frames (oldest first) ---
void save_tunnel(Buf& b, const backend::Tunnel& tunnel);
[[nodiscard]] bool load_tunnel(Cursor& c, backend::Tunnel& tunnel);

// --- poller accounting ---
void save_poller(Buf& b, const backend::Poller& poller);
[[nodiscard]] bool load_poller(Cursor& c, backend::Poller& poller);

// --- report store, canonical: APs sorted by id, per-AP arrival order
// preserved, each report as its wire encoding ---
void save_store(Buf& b, const backend::ReportStore& store);
[[nodiscard]] bool load_store(Cursor& c, backend::ReportStore& store);

// --- fleet segment vault: every live sealed segment (network id, batch
// seq, report count, segment bytes), fleet order. Spilled segments are
// pulled back from their spill file to serialize, so the checkpoint is
// self-contained; save returns false if a spill file has gone unreadable.
// load adopts each segment through its own header/CRC validation. ---
[[nodiscard]] bool save_fleet_segments(Buf& b, const tsdb::FleetStore& store);
[[nodiscard]] bool load_fleet_segments(Cursor& c, tsdb::FleetStore& store);

// --- loss ledger snapshot ---
void save_ledger(Buf& b, const fault::LossLedger& ledger);
[[nodiscard]] bool load_ledger(Cursor& c, fault::LossLedger& out);

// --- fault scenario spec (part of the config section) ---
void save_fault_spec(Buf& b, const fault::FaultSpec& spec);
[[nodiscard]] bool load_fault_spec(Cursor& c, fault::FaultSpec& out);

// --- fault injector progress: per-AP schedule cursors + counters. The
// plan itself is reconstructed from the seed; only execution state saves.
// load validates cursors against the injector's (rebuilt) plan. ---
void save_injector(Buf& b, const fault::FaultInjector& injector);
[[nodiscard]] bool load_injector(Cursor& c, fault::FaultInjector& injector);

// --- metrics registry (sorted storage; restored into a fresh registry) ---
void save_metrics(Buf& b, const telemetry::MetricsRegistry& metrics);
[[nodiscard]] bool load_metrics(Cursor& c, telemetry::MetricsRegistry& metrics);

// --- trace spans / flight recorder ---
void save_spans(Buf& b, const std::vector<telemetry::TraceSpan>& spans);
[[nodiscard]] bool load_spans(Cursor& c, std::vector<telemetry::TraceSpan>& out);
void save_recorder(Buf& b, const telemetry::FlightRecorder& recorder);
[[nodiscard]] bool load_recorder(Cursor& c, telemetry::FlightRecorder& recorder);

// --- two-tier classifier (verdict cache contents in FIFO order + stats +
// slow-path counter) ---
void save_classifier(Buf& b, const classify::TwoTierClassifier& classifier);
[[nodiscard]] bool load_classifier(Cursor& c, classify::TwoTierClassifier& classifier);

// --- world configuration (everything FleetRunner reconstruction needs;
// `threads` is a runtime choice and is NOT serialized) ---
void save_world_config(Buf& b, const sim::WorldConfig& config);
[[nodiscard]] bool load_world_config(Cursor& c, sim::WorldConfig& out);

// --- one shard's full mutable state: the campaign container's kShard
// payload, and (the same bytes) the supervision layer's retry snapshots.
// load validates structure against the rebuilt shard and applies
// all-or-nothing like every other pair. ---
void save_shard_state(Buf& b, sim::NetworkShard& shard);
[[nodiscard]] bool load_shard_state(Cursor& c, sim::NetworkShard& shard);

// --- degraded-run manifest (supervision incidents; quarantine state is
// rebuilt from the kQuarantined entries on restore) ---
void save_manifest(Buf& b, const failsafe::DegradedRunManifest& manifest);
[[nodiscard]] bool load_manifest(Cursor& c, failsafe::DegradedRunManifest& out);

}  // namespace wlm::ckpt

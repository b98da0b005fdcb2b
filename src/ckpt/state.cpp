#include "ckpt/state.hpp"

#include <algorithm>
#include <deque>
#include <limits>
#include <utility>

#include "backend/poller.hpp"
#include "fault/injector.hpp"
#include "fault/spec.hpp"
#include "sim/link.hpp"
#include "wire/messages.hpp"

// The field list of every checkpointed type ("field lists" in
// ckpt/container.hpp; the checks' placement is DESIGN.md §4d's). Classes
// that expose state only through accessors travel as an image struct:
// snapshot() fills it from the live object (on the load side too, giving
// the rebuilt world's view), fields() encodes or decodes it, and restore()
// applies it once the component parsed, latching or refusing on rejection.

namespace wlm::ckpt {

constexpr double kMax = std::numeric_limits<double>::max();
constexpr std::uint64_t kU32Max = std::numeric_limits<std::uint32_t>::max();

/// The memory ceiling a restored streaming campaign runs under. Arbitrary
/// but harmless: output is byte-identical for ANY nonzero ceiling, so this
/// only decides when the resumed process starts spilling.
constexpr std::uint64_t kRestoredCeilingMb = 4096;

/// Decodes a plain struct into a temporary; `out` changes only when the
/// whole struct parsed.
template <class T>
bool load_into(Cursor& c, T& out) {
  T s{};
  fields(c, s);
  if (c.live()) out = std::move(s);
  return c.live();
}

// --- plain structs ---

template <class Io, Is<Rng::State> S>
void fields(Io& io, S& s) {
  list(io, s.s[0], s.s[1], s.s[2], s.s[3], s.cached_normal, s.has_cached_normal);
}

template <class Io, Is<phy::FadingProcess::State> S>
void fields(Io& io, S& s) {
  list(io, s.rng, s.re, s.im);
}

template <class Io, Is<sim::MeshLink::State> S>
void fields(Io& io, S& s) {
  list(io, s.rng, s.fast_fading, s.slow_drift, s.current_fast_db, s.current_slow_db);
}

template <class Io, Is<backend::TunnelStats> S>
void fields(Io& io, S& s) {
  list(io, s.frames_queued, s.frames_delivered, s.frames_dropped, s.frames_flushed,
       s.bytes_delivered, s.disconnects);
}

template <class Io, Is<backend::PollerStats> S>
void fields(Io& io, S& s) {
  list(io, s.frames_harvested, s.corrupt_frames, s.malformed_reports, s.bytes_harvested,
       s.reports_stored, s.polls_skipped_backoff);
}

template <class Io, Is<backend::TunnelCounters> S>
void fields(Io& io, S& t) {
  std::uint64_t ap = t.ap.value();
  io.u64(ap, 0, kU32Max);
  list(io, t.frames_polled, t.corrupt_frames, t.malformed_reports, t.reports_stored,
       t.cycles_backed_off);
  io.i64(t.backoff_level, 0, 64);
  io.i64(t.backoff_remaining, 0, std::numeric_limits<std::int32_t>::max());
  io.boolean(t.quarantined);
  if constexpr (kLoading<Io>) t.ap = ApId{static_cast<std::uint32_t>(ap)};
}

template <class Io, Is<fault::FaultInjector::ApCursor> S>
void fields(Io& io, S& s) {
  list(io, s.cursor, s.clock, s.in_outage, s.outage_start_us);
}

template <class Io, Is<telemetry::TraceSpan> S>
void fields(Io& io, S& s) {
  io.u64(s.kind, 0, static_cast<std::uint64_t>(telemetry::SpanKind::kShardQuarantine));
  list(io, s.entity, s.start_us, s.end_us, s.detail);
}

template <class Io, Is<classify::VerdictCache::Stats> S>
void fields(Io& io, S& s) {
  list(io, s.hits, s.misses, s.evictions, s.pinned);
}

template <class Io, Is<classify::VerdictCache::SavedEntry> S>
void fields(Io& io, S& e) {
  // The flow key travels as three words: the MAC, both addresses, and both
  // ports plus the protocol.
  auto& k = e.key;
  std::uint64_t addrs = (std::uint64_t{k.src_addr} << 32) | k.dst_addr;
  std::uint64_t ports =
      (std::uint64_t{k.src_port} << 32) | (std::uint64_t{k.dst_port} << 16) | k.protocol;
  list(io, k.client_mac, addrs);
  io.u64(ports, 0, (std::uint64_t{1} << 48) - 1);
  io.u64(e.verdict, 0, static_cast<std::uint64_t>(classify::AppId::kXboxLive));
  io.u64(e.slow_seen);
  if constexpr (kLoading<Io>) {
    k.src_addr = static_cast<std::uint32_t>(addrs >> 32);
    k.dst_addr = static_cast<std::uint32_t>(addrs);
    k.src_port = static_cast<std::uint16_t>(ports >> 32);
    k.dst_port = static_cast<std::uint16_t>(ports >> 16);
    k.protocol = static_cast<std::uint8_t>(ports);
  }
}

template <class Io, Is<fault::LossLedger> S>
void fields(Io& io, S& l) {
  list(io, l.generated, l.delivered, l.shed, l.lost_reboot, l.lost_corruption, l.in_flight,
       l.lost_supervision, l.lost_mesh_partition);
}

template <class Io, Is<fault::FaultSpec> S>
void fields(Io& io, S& s) {
  list(io, s.flap_fraction, s.outage_rate_per_week, s.outage_mean_hours,
       s.reboot_rate_per_week, s.firmware_wave_fraction, s.firmware_wave_hour,
       s.corrupt_probability);
  io.u64(s.oom_neighbor_threshold, 0, 1'000'000);
  io.f64(s.skyscraper_fraction);
  io.u64(s.skyscraper_neighbors, 0, 1'000'000);
  io.u64(s.tunnel_queue_limit, 0, 100'000'000);  // sizes real allocations
  // FleetRunner saves clamped specs: NaN or a rate past its cap is corrupt.
  if constexpr (kLoading<Io>) {
    if (io.live() && s != s.clamped()) io.fail();
  }
}

template <class Io, Is<deploy::FleetConfig> S>
void fields(Io& io, S& s) {
  io.u64(s.epoch, 0, static_cast<std::uint64_t>(deploy::Epoch::kJan2015));
  // Reconstruction allocates per network: a corrupt count must not balloon.
  io.i64(s.network_count, 0, 1'000'000);
  io.u64(s.model, 0, static_cast<std::uint64_t>(deploy::ApModel::kMr18));
  io.u64(s.seed);
  for (auto& d : s.density_mix) io.f64(d, 0.0, 1.0);
}

template <class Io, Is<failsafe::SupervisorConfig> S>
void fields(Io& io, S& s) {
  // Each retry round-trips a whole shard: an absurd count is corruption.
  io.u64(s.max_shard_retries, 0, 1000);
  io.f64(s.shard_deadline_hours, 0.0, kMax);
  io.boolean(s.capture_checkpoints);
}

// The mobility and mesh ranges mirror MobilityConfig::clamped() and
// MeshConfig::clamped(): a value the clamp would have rewritten cannot have
// produced this checkpoint.
template <class Io, Is<mobility::MobilityConfig> S>
void fields(Io& io, S& s) {
  io.boolean(s.enabled);
  io.f64(s.speed_mps, std::numeric_limits<double>::denorm_min(), 10.0);  // > 0
  io.f64(s.pause_mean_s, 0.0, 1e6);
  io.u64(s.steps_per_week, 1, 100'000);
  io.u64(s.handoff_settle_steps, 1, 100);
  io.f64(s.handoff_hysteresis_db, 0.0, 50.0);
  io.f64(s.band_steer_bonus_db, -20.0, 20.0);
  io.f64(s.roam_probability, 0.0, 1.0);
}

template <class Io, Is<mesh::MeshConfig> S>
void fields(Io& io, S& s) {
  io.f64(s.mesh_fraction, 0.0, 0.95);
  io.u64(s.max_hops, 1, 16);
  io.f64(s.relay_floor_dbm, -100.0, -40.0);
  io.f64(s.drift_sigma_db, 0.0, 10.0);
}

// `threads` is a runtime choice and is not serialized.
template <class Io, Is<sim::WorldConfig> S>
void fields(Io& io, S& s) {
  fields(io, s.fleet);
  io.f64(s.client_scale, 0.0, 1e6);
  list(io, s.seed, s.faults, s.supervision);
  // v4: only the streaming-harvest on/off bit travels. Phase drains add
  // poll cycles, so it is simulated state; the ceiling value and the spill
  // directory are host knobs like `threads` (any nonzero ceiling gives
  // byte-identical output, so saving it would split identical runs).
  bool streaming = s.mem_ceiling_mb > 0;
  io.boolean(streaming);
  if constexpr (kLoading<Io>) s.mem_ceiling_mb = streaming ? kRestoredCeilingMb : 0;
  // v5 mobility and v6 mesh knobs: every one shapes simulated behavior.
  list(io, s.mobility, s.mesh);
}

template <class Io, Is<sim::MobileClient> S>
void fields(Io& io, S& m) {
  list(io, m.walks, m.dual_band, m.motion.pos.x, m.motion.pos.y, m.motion.target.x,
       m.motion.target.y);
  io.f64(m.motion.pause_s, 0.0, kMax);
  io.u64(m.serving_ap);
  io.u64(m.serving_band, 0, 1);
  io.u64(m.pending_steps, 0, 100);  // the settle clamp caps this at 100
  io.u64(m.pending_ap);
  io.u64(m.pending_band, 0, 1);
}

template <class Io, Is<mesh::RouteEntry> S>
void fields(Io& io, S& r) {
  list(io, r.is_gateway, r.routable, r.next_hop, r.gateway);
  io.u64(r.hop_count, 0, 16);  // the max_hops clamp caps paths at 16
  io.f64(r.next_hop_rx_dbm, -1000.0, 1000.0);
}

template <class Io, Is<failsafe::ShardIncident> S>
void fields(Io& io, S& inc) {
  list(io, inc.network, inc.phase, inc.error, inc.sim_us);
  io.u64(inc.failures, 1, UINT64_MAX);  // an incident without a failure is corruption
  io.u64(inc.retries);
  io.f64(inc.backoff_hours, 0.0, kMax);
  io.u64(inc.outcome, 0, static_cast<std::uint64_t>(failsafe::IncidentOutcome::kQuarantined));
  fields(io, inc.ledger);
}

template <class Io, Is<failsafe::DegradedRunManifest> S>
void fields(Io& io, S& m) {
  seq(io, m.incidents, 10);
}

template <class Io, Is<std::vector<telemetry::TraceSpan>> S>
void fields(Io& io, S& spans) {
  seq(io, spans, 5);
}

template <class Io, Is<VaultSummary> S>
void fields(Io& io, S& s) {
  list(io, s.reports, s.segments);
}

template <class Io, Is<CampaignProgress> S>
void fields(Io& io, S& p) {
  io.str(p.label);
  seq(io, p.phases_done, 1);
  io.f64(p.sim_hours);
}

// --- accessor-only classes: image, field list, snapshot, restore ---

namespace {

struct TunnelImage {
  bool connected = false;
  backend::TunnelStats stats;
  std::deque<std::vector<std::uint8_t>> queue;  // oldest first
};

template <class Io, Is<TunnelImage> S>
void fields(Io& io, S& s) {
  list(io, s.connected, s.stats);
  seq(io, s.queue, 1);
}

TunnelImage snapshot(const backend::Tunnel& t) { return {t.connected(), t.stats(), t.pending()}; }

void restore(Cursor&, backend::Tunnel& t, TunnelImage& s) {
  t.restore(s.connected, std::move(s.queue), s.stats);
}

struct PollerImage {
  backend::PollerStats stats;
  std::int64_t now_us = 0;
  std::vector<backend::TunnelCounters> counters;
};

template <class Io, Is<PollerImage> S>
void fields(Io& io, S& s) {
  list(io, s.stats, s.now_us);
  seq(io, s.counters, 9);
}

PollerImage snapshot(const backend::Poller& p) {
  return {p.stats(), p.now_us(), p.tunnel_counters()};
}

void restore(Cursor& c, backend::Poller& p, PollerImage& s) {
  if (!p.restore(s.stats, s.counters, s.now_us)) c.refuse();
}

/// Execution state only: the plan itself is rebuilt from the seed.
struct InjectorImage {
  bool enabled = false;
  std::vector<fault::FaultInjector::ApCursor> cursors;
  std::uint64_t reboots = 0;
  std::uint64_t ooms = 0;
  std::uint64_t corrupted = 0;
};

template <class Io, Is<InjectorImage> S>
void fields(Io& io, S& s) {
  // A checkpoint that disagrees with the rebuilt world about whether faults
  // run cannot be from the same campaign.
  expect(io, s.enabled);
  if (!s.enabled) return;
  seq(io, s.cursors, 4);
  list(io, s.reboots, s.ooms, s.corrupted);
}

InjectorImage snapshot(const fault::FaultInjector& i) {
  return {i.enabled(), i.cursor_states(), i.reboots_applied(), i.oom_reboots(),
          i.frames_corrupted()};
}

/// Cursors that do not fit the rebuilt plan are corruption.
void restore(Cursor& c, fault::FaultInjector& i, InjectorImage& s) {
  if (s.enabled && !i.restore(s.cursors, s.reboots, s.ooms, s.corrupted)) c.fail();
}

struct RecorderImage {
  std::uint64_t recorded = 0;  // lifetime total
  std::vector<telemetry::TraceSpan> spans;
};

template <class Io, Is<RecorderImage> S>
void fields(Io& io, S& s) {
  list(io, s.recorded, s.spans);
}

RecorderImage snapshot(const telemetry::FlightRecorder& r) {
  return {r.dropped() + r.size(), r.snapshot()};
}

void restore(Cursor& c, telemetry::FlightRecorder& r, RecorderImage& s) {
  if (!r.restore(s.spans, s.recorded)) c.fail();
}

struct ClassifierImage {
  std::uint64_t slow_calls = 0;
  classify::VerdictCache::Stats stats;
  std::vector<classify::VerdictCache::SavedEntry> entries;  // FIFO order
  std::size_t capacity = 0;  // the rebuilt cache's bound, not serialized
};

template <class Io, Is<ClassifierImage> S>
void fields(Io& io, S& s) {
  list(io, s.slow_calls, s.stats);
  // The rebuilt cache's capacity, not the payload size, bounds the count:
  // more entries than the cache holds means a different configuration.
  std::uint64_t n = s.entries.size();
  io.u64(n);
  if constexpr (kLoading<Io>) {
    if (io.live() && n > s.capacity) io.refuse();
    if (io.live()) s.entries.resize(static_cast<std::size_t>(n));
  }
  for (auto& e : s.entries) fields(io, e);
}

ClassifierImage snapshot(const classify::TwoTierClassifier& c) {
  return {c.slow_path_calls(), c.cache().stats(), c.cache().snapshot(), c.cache().capacity()};
}

/// A flow listed twice is corruption.
void restore(Cursor& cur, classify::TwoTierClassifier& c, ClassifierImage& s) {
  if (!c.cache().restore(s.entries, s.stats)) return cur.fail();
  c.restore(s.slow_calls);
}

/// A counter (V = std::uint64_t) or a gauge (V = double).
template <class V>
struct MetricEntry {
  std::string name;
  std::uint64_t entity = 0;
  V value{};
};

template <class Io, class S>
  requires Is<S, MetricEntry<std::uint64_t>> || Is<S, MetricEntry<double>>
void fields(Io& io, S& e) {
  list(io, e.name, e.entity, e.value);
}

struct HistEntry {
  std::string name;
  std::uint64_t entity = 0;
  std::vector<double> bounds;
  std::vector<std::uint64_t> counts;  // bounds.size() + 1, not count-prefixed
  std::uint64_t count = 0;
  double sum = 0.0;
};

template <class Io, Is<HistEntry> S>
void fields(Io& io, S& e) {
  list(io, e.name, e.entity);
  seq(io, e.bounds, 8);
  if constexpr (kLoading<Io>) e.counts.assign(e.bounds.size() + 1, 0);
  for (auto& n : e.counts) io.u64(n);
  list(io, e.count, e.sum);
}

/// The registry in its sorted visitation order, each kind count-prefixed.
struct MetricsImage {
  std::vector<MetricEntry<std::uint64_t>> counters;
  std::vector<MetricEntry<double>> gauges;
  std::vector<HistEntry> hists;
};

template <class Io, Is<MetricsImage> S>
void fields(Io& io, S& s) {
  seq(io, s.counters, 3);
  seq(io, s.gauges, 10);
  seq(io, s.hists, 4);
}

MetricsImage snapshot(const telemetry::MetricsRegistry& m) {
  MetricsImage s;
  m.for_each_counter([&](auto& k, auto& v) {
    s.counters.push_back({k.name, k.entity, v.value()});
  });
  m.for_each_gauge([&](auto& k, auto& v) { s.gauges.push_back({k.name, k.entity, v.value()}); });
  m.for_each_histogram([&](auto& k, auto& v) {
    s.hists.push_back({k.name, k.entity, v.bounds(), v.bucket_counts(), v.count(), v.sum()});
  });
  return s;
}

void restore(Cursor& c, telemetry::MetricsRegistry& m, MetricsImage& s) {
  for (const auto& e : s.counters) m.counter(e.name, e.entity).inc(e.value);
  for (const auto& e : s.gauges) m.gauge(e.name, e.entity).set(e.value);
  for (auto& e : s.hists) {
    // Bounds that collide with an existing histogram of a different shape:
    // the checkpoint disagrees with the registry it restores into.
    if (!m.histogram(e.name, e.bounds, e.entity).restore(e.counts, e.count, e.sum)) {
      return c.refuse();
    }
  }
}

// Rng and MeshLink expose their state struct directly.
Rng::State snapshot(const Rng& r) { return r.state(); }
void restore(Cursor&, Rng& r, Rng::State& s) { r.restore(s); }
sim::MeshLink::State snapshot(const sim::MeshLink& l) { return l.state(); }
void restore(Cursor&, sim::MeshLink& l, sim::MeshLink::State& s) { l.restore(s); }

/// A report as its wire encoding. Decoded, it must name the AP it is filed
/// under: a well-framed section that contradicts itself is malformed.
struct WireReport {
  std::uint64_t ap = 0;
  void operator()(Buf& b, const wire::ApReport& r) const { b.bytes(wire::encode_report(r)); }
  void operator()(Cursor& c, wire::ApReport& r) const {
    auto decoded = wire::decode_report(c.bytes());
    if (!c.live()) return;
    if (!decoded || decoded->ap_id != ap) return c.fail();
    r = std::move(*decoded);
  }
};

/// Mesh routes must describe a topology the rebuilt membership allows.
bool route_ok(const mesh::RouteEntry& r, std::size_t i, const std::vector<bool>& is_mesh) {
  if (r.is_gateway == is_mesh[i]) return false;
  if (r.next_hop >= is_mesh.size() || r.gateway >= is_mesh.size()) return false;  // dangling
  if (r.is_gateway || !r.routable) {
    // Gateways and unroutable APs point at themselves with no hops.
    return r.next_hop == i && r.gateway == i && r.hop_count == 0;
  }
  // No self-loop, at least one hop, and the path ends at a gateway.
  return r.next_hop != i && r.hop_count != 0 && !is_mesh[r.gateway];
}

}  // namespace

/// One accessor-only object, through its image (see the top of this file).
template <class Io, class T>
bool state(Io& io, T& obj) {
  auto image = snapshot(std::as_const(obj));
  fields(io, image);
  if constexpr (kLoading<Io>) {
    if (io.live()) restore(io, obj, image);
  }
  return io.live();
}

/// A component through its public save/load pair (state.hpp).
template <class Io, class T>
void code(Io& io, T& x) {
  if constexpr (kLoading<Io>) {
    (void)load(io, x);
  } else {
    save(io, x);
  }
}

// --- report store: APs sorted by id, per-AP arrival order kept ---

template <class Io, class S>
void bucket(Io& io, S& b) {
  io.u64(b.first, 0, kU32Max);
  seq(io, b.second, 1, WireReport{b.first});
}

void save(Buf& b, const backend::ReportStore& store) {
  std::vector<std::pair<std::uint64_t, std::span<const wire::ApReport>>> buckets;
  for (const ApId ap : store.aps()) buckets.emplace_back(ap.value(), store.reports_for(ap));
  seq(b, buckets, 2, [](Buf& b, auto& e) { bucket(b, e); });
}

bool load(Cursor& c, backend::ReportStore& store) {
  std::vector<std::pair<std::uint64_t, std::vector<wire::ApReport>>> buckets;
  seq(c, buckets, 2, [](Cursor& c, auto& e) { bucket(c, e); });
  if (!c.live()) return false;
  for (auto& [ap, reports] : buckets) {
    for (auto& report : reports) store.add(std::move(report));
  }
  return true;
}

// --- one shard's full mutable state ---
//
// The campaign container's kShard sections and the supervision layer's
// retry snapshots are the same byte sequence: a supervised retry is a
// checkpoint restore scoped to one shard. Components apply as they parse;
// restore_campaign discards the whole runner if a later one fails.

template <class Io>
bool shard_fields(Io& io, sim::NetworkShard& shard) {
  expect(io, shard.id().value());
  code(io, shard.rng());
  code(io, shard.fault_rng());
  state(io, shard.injector());
  expect(io, shard.aps().size());
  for (auto& ap : shard.aps()) {
    expect(io, ap.id().value());
    code(io, ap.tunnel());
  }
  expect(io, shard.links().size());
  for (auto& link : shard.links()) state(io, link);
  if constexpr (kLoading<Io>) {
    // Store and metrics loads add into their target. A supervised retry
    // restores into a shard that already ran part of a phase, so wipe both
    // first: a restore is an overwrite, never an accumulation.
    shard.store() = backend::ReportStore{};
    shard.metrics().clear();
  }
  code(io, shard.store());
  state(io, shard.poller());
  code(io, shard.metrics());
  code(io, shard.recorder());
  std::uint64_t classified = shard.flows_classified();
  std::uint64_t misclassified = shard.flows_misclassified();
  list(io, classified, misclassified);
  code(io, shard.classifier());

  // v5 mobility block: the enabled bit always travels, the state behind it
  // only when mobility is on. The rebuilt shard built its roster from the
  // config, so the roster shape must match and every client be in the site.
  const std::size_t n_aps = shard.aps().size();
  expect(io, shard.mobility_enabled());
  if (shard.mobility_enabled()) {
    code(io, shard.mobility_rng());
    const auto& site = shard.network().site;
    const auto in_site = [&](const phy::Position& p) {  // false for NaN
      return p.x >= 0.0 && p.x <= site.width_m && p.y >= 0.0 && p.y <= site.height_m;
    };
    expect(io, shard.mobility_roster().size());
    for (auto& per_ap : shard.mobility_roster()) {
      expect(io, per_ap.size());
      for (sim::MobileClient& m : per_ap) {
        fields(io, m);
        if constexpr (kLoading<Io>) {
          if (!(in_site(m.motion.pos) && in_site(m.motion.target) && m.serving_ap < n_aps &&
                m.pending_ap < n_aps)) {
            io.fail();
          }
        }
      }
    }
  }

  // v6 mesh block, same shape: the routing table must fit the rebuilt
  // membership, and the relay horizons cover every AP.
  expect(io, shard.mesh_enabled());
  auto routes = shard.mesh_routes();
  auto busy = shard.mesh_busy_until_us();
  std::uint64_t partition_lost = shard.mesh_partition_lost();
  if (shard.mesh_enabled()) {
    code(io, shard.mesh_rng());
    // Empty before the first campaign phase, otherwise one entry per AP.
    std::uint64_t n_routes = routes.size();
    io.u64(n_routes);
    if constexpr (kLoading<Io>) {
      if (io.live() && n_routes != 0 && n_routes != n_aps) io.refuse();
      if (io.live()) routes.resize(static_cast<std::size_t>(n_routes));
    }
    for (std::size_t i = 0; i < routes.size(); ++i) {
      fields(io, routes[i]);
      if constexpr (kLoading<Io>) {
        if (!route_ok(routes[i], i, shard.mesh_membership())) io.fail();
      }
    }
    expect(io, busy.size());
    for (auto& t : busy) io.i64(t, 0, INT64_MAX);  // horizons never precede the epoch
    io.u64(partition_lost);
  }

  if constexpr (kLoading<Io>) {
    if (!io.at_end()) io.refuse();  // trailing bytes are a mismatch too
    if (!io.live()) return false;
    shard.restore_flow_counters(classified, misclassified);
    if (shard.mesh_enabled()) {
      shard.mesh_routes() = std::move(routes);
      shard.mesh_busy_until_us() = std::move(busy);
      shard.restore_mesh_partition_lost(partition_lost);
    }
  }
  return true;
}

// --- entry points ---

void save(Buf& b, const Rng& rng) { state(b, rng); }
bool load(Cursor& c, Rng& rng) { return state(c, rng); }
void save(Buf& b, const backend::Tunnel& tunnel) { state(b, tunnel); }
bool load(Cursor& c, backend::Tunnel& tunnel) { return state(c, tunnel); }
void save(Buf& b, const telemetry::MetricsRegistry& m) { state(b, m); }
bool load(Cursor& c, telemetry::MetricsRegistry& m) { return state(c, m); }
void save(Buf& b, const std::vector<telemetry::TraceSpan>& spans) { fields(b, spans); }
bool load(Cursor& c, std::vector<telemetry::TraceSpan>& out) { return load_into(c, out); }
void save(Buf& b, const telemetry::FlightRecorder& r) { state(b, r); }
bool load(Cursor& c, telemetry::FlightRecorder& r) { return state(c, r); }
void save(Buf& b, const classify::TwoTierClassifier& cls) { state(b, cls); }
bool load(Cursor& c, classify::TwoTierClassifier& cls) { return state(c, cls); }
void save(Buf& b, const sim::WorldConfig& config) { fields(b, config); }
bool load(Cursor& c, sim::WorldConfig& out) { return load_into(c, out); }
void save(Buf& b, const failsafe::DegradedRunManifest& m) { fields(b, m); }
bool load(Cursor& c, failsafe::DegradedRunManifest& out) { return load_into(c, out); }
void save(Buf& b, const VaultSummary& s) { fields(b, s); }
bool load(Cursor& c, VaultSummary& out) { return load_into(c, out); }
void save_shard_state(Buf& b, sim::NetworkShard& shard) { shard_fields(b, shard); }
bool load_shard_state(Cursor& c, sim::NetworkShard& shard) { return shard_fields(c, shard); }

void save_meta(Buf& b, const CampaignProgress& progress, const fault::LossLedger& ledger) {
  list(b, progress, ledger);
}
bool load_meta(Cursor& c, CampaignProgress& progress, fault::LossLedger& ledger) {
  return load_into(c, progress) && load_into(c, ledger);
}

}  // namespace wlm::ckpt

#include "ckpt/state.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <utility>

#include "wire/messages.hpp"

namespace wlm::ckpt {

namespace {

/// Bounds an element count read from the payload: every element consumes at
/// least `min_bytes_each`, so a count the remaining bytes cannot possibly
/// hold is corruption — latch the cursor instead of looping on it.
bool plausible_count(Cursor& c, std::uint64_t count, std::size_t min_bytes_each) {
  if (count > c.remaining() / std::max<std::size_t>(1, min_bytes_each)) {
    c.fail();
    return false;
  }
  return true;
}

}  // namespace

// --- RNG ---

void save_rng(Buf& b, const Rng::State& s) {
  for (const auto word : s.s) b.u64(word);
  b.f64(s.cached_normal);
  b.boolean(s.has_cached_normal);
}

bool load_rng(Cursor& c, Rng::State& out) {
  Rng::State s;
  for (auto& word : s.s) word = c.u64();
  s.cached_normal = c.f64();
  s.has_cached_normal = c.boolean();
  if (!c.ok()) return false;
  out = s;
  return true;
}

// --- mesh link ---

namespace {

void save_fading(Buf& b, const phy::FadingProcess::State& s) {
  save_rng(b, s.rng);
  b.f64(s.re);
  b.f64(s.im);
}

bool load_fading(Cursor& c, phy::FadingProcess::State& out) {
  phy::FadingProcess::State s;
  if (!load_rng(c, s.rng)) return false;
  s.re = c.f64();
  s.im = c.f64();
  if (!c.ok()) return false;
  out = s;
  return true;
}

}  // namespace

void save_link(Buf& b, const sim::MeshLink::State& s) {
  save_rng(b, s.rng);
  save_fading(b, s.fast_fading);
  save_fading(b, s.slow_drift);
  b.f64(s.current_fast_db);
  b.f64(s.current_slow_db);
}

bool load_link(Cursor& c, sim::MeshLink::State& out) {
  sim::MeshLink::State s;
  if (!load_rng(c, s.rng)) return false;
  if (!load_fading(c, s.fast_fading)) return false;
  if (!load_fading(c, s.slow_drift)) return false;
  s.current_fast_db = c.f64();
  s.current_slow_db = c.f64();
  if (!c.ok()) return false;
  out = s;
  return true;
}

// --- tunnel ---

namespace {

void save_tunnel_stats(Buf& b, const backend::TunnelStats& s) {
  b.u64(s.frames_queued);
  b.u64(s.frames_delivered);
  b.u64(s.frames_dropped);
  b.u64(s.frames_flushed);
  b.u64(s.bytes_delivered);
  b.u64(s.disconnects);
}

bool load_tunnel_stats(Cursor& c, backend::TunnelStats& out) {
  backend::TunnelStats s;
  s.frames_queued = c.u64();
  s.frames_delivered = c.u64();
  s.frames_dropped = c.u64();
  s.frames_flushed = c.u64();
  s.bytes_delivered = c.u64();
  s.disconnects = c.u64();
  if (!c.ok()) return false;
  out = s;
  return true;
}

}  // namespace

void save_tunnel(Buf& b, const backend::Tunnel& tunnel) {
  b.boolean(tunnel.connected());
  save_tunnel_stats(b, tunnel.stats());
  b.u64(tunnel.pending().size());
  for (const auto& frame : tunnel.pending()) b.bytes(frame);
}

bool load_tunnel(Cursor& c, backend::Tunnel& tunnel) {
  const bool connected = c.boolean();
  backend::TunnelStats stats;
  if (!load_tunnel_stats(c, stats)) return false;
  const std::uint64_t n = c.u64();
  if (!c.ok() || !plausible_count(c, n, 1)) return false;
  std::deque<std::vector<std::uint8_t>> queue;
  for (std::uint64_t i = 0; i < n && c.ok(); ++i) {
    const auto frame = c.bytes();
    queue.emplace_back(frame.begin(), frame.end());
  }
  if (!c.ok()) return false;
  tunnel.restore(connected, std::move(queue), stats);
  return true;
}

// --- poller ---

void save_poller(Buf& b, const backend::Poller& poller) {
  const auto& s = poller.stats();
  b.u64(s.frames_harvested);
  b.u64(s.corrupt_frames);
  b.u64(s.malformed_reports);
  b.u64(s.bytes_harvested);
  b.u64(s.reports_stored);
  b.u64(s.polls_skipped_backoff);
  b.i64(poller.now_us());
  const auto& counters = poller.tunnel_counters();
  b.u64(counters.size());
  for (const auto& t : counters) {
    b.u64(t.ap.value());
    b.u64(t.frames_polled);
    b.u64(t.corrupt_frames);
    b.u64(t.malformed_reports);
    b.u64(t.reports_stored);
    b.u64(t.cycles_backed_off);
    b.i64(t.backoff_level);
    b.i64(t.backoff_remaining);
    b.boolean(t.quarantined);
  }
}

bool load_poller(Cursor& c, backend::Poller& poller) {
  backend::PollerStats stats;
  stats.frames_harvested = c.u64();
  stats.corrupt_frames = c.u64();
  stats.malformed_reports = c.u64();
  stats.bytes_harvested = c.u64();
  stats.reports_stored = c.u64();
  stats.polls_skipped_backoff = c.u64();
  const std::int64_t now_us = c.i64();
  const std::uint64_t n = c.u64();
  if (!c.ok() || !plausible_count(c, n, 9)) return false;
  std::vector<backend::TunnelCounters> counters;
  counters.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n && c.ok(); ++i) {
    backend::TunnelCounters t;
    const std::uint64_t ap = c.u64();
    if (ap > UINT32_MAX) c.fail();
    t.ap = ApId{static_cast<std::uint32_t>(ap)};
    t.frames_polled = c.u64();
    t.corrupt_frames = c.u64();
    t.malformed_reports = c.u64();
    t.reports_stored = c.u64();
    t.cycles_backed_off = c.u64();
    const std::int64_t level = c.i64();
    const std::int64_t rem = c.i64();
    if (level < 0 || level > 64 || rem < 0 || rem > INT32_MAX) c.fail();
    t.backoff_level = static_cast<int>(level);
    t.backoff_remaining = static_cast<int>(rem);
    t.quarantined = c.boolean();
    counters.push_back(t);
  }
  if (!c.ok()) return false;
  return poller.restore(stats, counters, now_us);
}

// --- report store ---

void save_store(Buf& b, const backend::ReportStore& store) {
  const auto aps = store.aps();  // sorted — the canonical order
  b.u64(aps.size());
  for (const ApId ap : aps) {
    const auto& reports = store.reports_for(ap);
    b.u64(ap.value());
    b.u64(reports.size());
    for (const auto& report : reports) b.bytes(wire::encode_report(report));
  }
}

bool load_store(Cursor& c, backend::ReportStore& store) {
  const std::uint64_t ap_count = c.u64();
  if (!c.ok() || !plausible_count(c, ap_count, 2)) return false;
  std::vector<wire::ApReport> decoded;
  for (std::uint64_t a = 0; a < ap_count && c.ok(); ++a) {
    const std::uint64_t ap = c.u64();
    const std::uint64_t n = c.u64();
    if (ap > UINT32_MAX || !c.ok() || !plausible_count(c, n, 1)) {
      c.fail();
      return false;
    }
    for (std::uint64_t i = 0; i < n && c.ok(); ++i) {
      auto report = wire::decode_report(c.bytes());
      if (!c.ok()) return false;
      // The report's own ap_id must agree with its bucket: a well-framed
      // section whose content contradicts itself is malformed, not usable.
      if (!report || report->ap_id != ap) {
        c.fail();
        return false;
      }
      decoded.push_back(std::move(*report));
    }
  }
  if (!c.ok()) return false;
  for (auto& report : decoded) store.add(std::move(report));
  return true;
}

// --- fleet segment vault ---

bool save_fleet_segments(Buf& b, const tsdb::FleetStore& store) {
  // The report total leads the section so the restore side can prove no
  // segment went missing (e.g. a spill file that became unreadable between
  // spill and save would otherwise vanish silently).
  b.u64(store.stats().reports);
  // Count only live segments: drop_network leaves zeroed placeholder
  // records behind (spill offsets of later segments must not shift), and a
  // quarantined network's batches must not resurface through a restore.
  std::uint64_t live = 0;
  for (std::size_t i = 0; i < store.segment_count(); ++i) {
    if (store.info(i).size > 0) ++live;
  }
  b.u64(live);
  std::vector<std::uint8_t> bytes;
  for (std::size_t i = 0; i < store.segment_count(); ++i) {
    const auto info = store.info(i);
    if (info.size == 0) continue;
    if (store.segment_bytes(i, bytes)) return false;  // spill file unreadable
    b.u64(info.network_id);
    b.u64(info.batch_seq);
    b.u64(info.n_reports);
    b.bytes(bytes);
  }
  return true;
}

bool load_fleet_segments(Cursor& c, tsdb::FleetStore& store) {
  const std::uint64_t expected_reports = c.u64();
  const std::uint64_t n_segments = c.u64();
  // Each segment costs at least its header (magic + fixed words + trailer).
  if (!c.ok() || !plausible_count(c, n_segments, 24)) return false;
  std::vector<std::vector<std::uint8_t>> segments;
  for (std::uint64_t i = 0; i < n_segments && c.ok(); ++i) {
    const std::uint64_t network_id = c.u64();
    const std::uint64_t batch_seq = c.u64();
    const std::uint64_t n_reports = c.u64();
    const auto payload = c.bytes();
    if (!c.ok()) return false;
    // The envelope's claims must agree with the segment's own validated
    // header — a mismatch means the container was stitched together.
    tsdb::SegmentHeader hdr;
    if (tsdb::SegmentReader::read_header(payload, hdr) || hdr.network_id != network_id ||
        hdr.batch_seq != batch_seq || hdr.n_reports != n_reports) {
      c.fail();
      return false;
    }
    segments.emplace_back(payload.begin(), payload.end());
  }
  if (!c.ok()) return false;
  // All-or-nothing: adopt (which re-validates every CRC) only after the
  // whole section parsed, and the adopted total must match the leading
  // claim — a shortfall means a segment was lost between spill and save.
  for (auto& seg : segments) {
    if (store.adopt_segment(std::move(seg))) {
      store.clear();
      return false;
    }
  }
  if (store.stats().reports != expected_reports) {
    store.clear();
    c.fail();
    return false;
  }
  return true;
}

// --- loss ledger ---

void save_ledger(Buf& b, const fault::LossLedger& ledger) {
  b.u64(ledger.generated);
  b.u64(ledger.delivered);
  b.u64(ledger.shed);
  b.u64(ledger.lost_reboot);
  b.u64(ledger.lost_corruption);
  b.u64(ledger.in_flight);
  b.u64(ledger.lost_supervision);
  b.u64(ledger.lost_mesh_partition);
}

bool load_ledger(Cursor& c, fault::LossLedger& out) {
  fault::LossLedger l;
  l.generated = c.u64();
  l.delivered = c.u64();
  l.shed = c.u64();
  l.lost_reboot = c.u64();
  l.lost_corruption = c.u64();
  l.in_flight = c.u64();
  l.lost_supervision = c.u64();
  l.lost_mesh_partition = c.u64();
  if (!c.ok()) return false;
  out = l;
  return true;
}

// --- fault spec ---

void save_fault_spec(Buf& b, const fault::FaultSpec& spec) {
  b.f64(spec.flap_fraction);
  b.f64(spec.outage_rate_per_week);
  b.f64(spec.outage_mean_hours);
  b.f64(spec.reboot_rate_per_week);
  b.f64(spec.firmware_wave_fraction);
  b.f64(spec.firmware_wave_hour);
  b.f64(spec.corrupt_probability);
  b.u64(spec.oom_neighbor_threshold);
  b.f64(spec.skyscraper_fraction);
  b.u64(spec.skyscraper_neighbors);
  b.u64(spec.tunnel_queue_limit);
}

bool load_fault_spec(Cursor& c, fault::FaultSpec& out) {
  fault::FaultSpec s;
  s.flap_fraction = c.f64();
  s.outage_rate_per_week = c.f64();
  s.outage_mean_hours = c.f64();
  s.reboot_rate_per_week = c.f64();
  s.firmware_wave_fraction = c.f64();
  s.firmware_wave_hour = c.f64();
  s.corrupt_probability = c.f64();
  const std::uint64_t oom = c.u64();
  s.skyscraper_fraction = c.f64();
  const std::uint64_t sky = c.u64();
  const std::uint64_t queue_limit = c.u64();
  // The queue limit sizes real allocations during reconstruction; a
  // multi-terabyte value is corruption, not configuration.
  if (oom > 1'000'000 || sky > 1'000'000 || queue_limit > 100'000'000) c.fail();
  if (!c.ok()) return false;
  s.oom_neighbor_threshold = static_cast<std::size_t>(oom);
  s.skyscraper_neighbors = static_cast<std::size_t>(sky);
  s.tunnel_queue_limit = static_cast<std::size_t>(queue_limit);
  out = s;
  return true;
}

// --- fault injector ---

void save_injector(Buf& b, const fault::FaultInjector& injector) {
  b.boolean(injector.enabled());
  if (!injector.enabled()) return;
  const auto cursors = injector.cursor_states();
  b.u64(cursors.size());
  for (const auto& cur : cursors) {
    b.u64(cur.cursor);
    b.i64(cur.clock);
    b.boolean(cur.in_outage);
    b.i64(cur.outage_start_us);
  }
  b.u64(injector.reboots_applied());
  b.u64(injector.oom_reboots());
  b.u64(injector.frames_corrupted());
}

bool load_injector(Cursor& c, fault::FaultInjector& injector) {
  const bool enabled = c.boolean();
  if (!c.ok()) return false;
  // A checkpoint that disagrees with the rebuilt world about whether faults
  // run cannot be from the same campaign. The cursor stays intact: the
  // bytes are fine, the *scenario* is wrong (kBadConfig, not kMalformed).
  if (enabled != injector.enabled()) return false;
  if (!enabled) return true;
  const std::uint64_t n = c.u64();
  if (!c.ok() || !plausible_count(c, n, 4)) return false;
  std::vector<fault::FaultInjector::ApCursor> cursors;
  cursors.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n && c.ok(); ++i) {
    fault::FaultInjector::ApCursor cur;
    cur.cursor = c.u64();
    cur.clock = c.i64();
    cur.in_outage = c.boolean();
    cur.outage_start_us = c.i64();
    cursors.push_back(cur);
  }
  const std::uint64_t reboots = c.u64();
  const std::uint64_t ooms = c.u64();
  const std::uint64_t corrupted = c.u64();
  if (!c.ok()) return false;
  if (!injector.restore(cursors, reboots, ooms, corrupted)) {
    c.fail();
    return false;
  }
  return true;
}

// --- metrics registry ---

void save_metrics(Buf& b, const telemetry::MetricsRegistry& metrics) {
  // Collect first: the registry exposes sorted visitation but not sizes per
  // kind, and the payload leads each group with its count.
  std::vector<std::pair<telemetry::MetricKey, std::uint64_t>> counters;
  metrics.for_each_counter([&](const telemetry::MetricKey& k, const telemetry::Counter& v) {
    counters.emplace_back(k, v.value());
  });
  std::vector<std::pair<telemetry::MetricKey, double>> gauges;
  metrics.for_each_gauge([&](const telemetry::MetricKey& k, const telemetry::Gauge& v) {
    gauges.emplace_back(k, v.value());
  });
  std::vector<std::pair<telemetry::MetricKey, const telemetry::Histogram*>> histograms;
  metrics.for_each_histogram(
      [&](const telemetry::MetricKey& k, const telemetry::Histogram& v) {
        histograms.emplace_back(k, &v);
      });

  b.u64(counters.size());
  for (const auto& [key, value] : counters) {
    b.str(key.name);
    b.u64(key.entity);
    b.u64(value);
  }
  b.u64(gauges.size());
  for (const auto& [key, value] : gauges) {
    b.str(key.name);
    b.u64(key.entity);
    b.f64(value);
  }
  b.u64(histograms.size());
  for (const auto& [key, hist] : histograms) {
    b.str(key.name);
    b.u64(key.entity);
    b.u64(hist->bounds().size());
    for (const double bound : hist->bounds()) b.f64(bound);
    for (const std::uint64_t count : hist->bucket_counts()) b.u64(count);
    b.u64(hist->count());
    b.f64(hist->sum());
  }
}

bool load_metrics(Cursor& c, telemetry::MetricsRegistry& metrics) {
  struct CounterEntry {
    std::string name;
    std::uint64_t entity;
    std::uint64_t value;
  };
  struct GaugeEntry {
    std::string name;
    std::uint64_t entity;
    double value;
  };
  struct HistEntry {
    std::string name;
    std::uint64_t entity;
    std::vector<double> bounds;
    std::vector<std::uint64_t> counts;
    std::uint64_t count;
    double sum;
  };
  std::vector<CounterEntry> counters;
  std::vector<GaugeEntry> gauges;
  std::vector<HistEntry> hists;

  const std::uint64_t n_counters = c.u64();
  if (!c.ok() || !plausible_count(c, n_counters, 3)) return false;
  for (std::uint64_t i = 0; i < n_counters && c.ok(); ++i) {
    CounterEntry e;
    e.name = c.str();
    e.entity = c.u64();
    e.value = c.u64();
    if (c.ok()) counters.push_back(std::move(e));
  }
  const std::uint64_t n_gauges = c.u64();
  if (!c.ok() || !plausible_count(c, n_gauges, 10)) return false;
  for (std::uint64_t i = 0; i < n_gauges && c.ok(); ++i) {
    GaugeEntry e;
    e.name = c.str();
    e.entity = c.u64();
    e.value = c.f64();
    if (c.ok()) gauges.push_back(std::move(e));
  }
  const std::uint64_t n_hists = c.u64();
  if (!c.ok() || !plausible_count(c, n_hists, 4)) return false;
  for (std::uint64_t i = 0; i < n_hists && c.ok(); ++i) {
    HistEntry e;
    e.name = c.str();
    e.entity = c.u64();
    const std::uint64_t n_bounds = c.u64();
    if (!c.ok() || !plausible_count(c, n_bounds, 8)) return false;
    e.bounds.reserve(static_cast<std::size_t>(n_bounds));
    for (std::uint64_t j = 0; j < n_bounds && c.ok(); ++j) e.bounds.push_back(c.f64());
    for (std::uint64_t j = 0; j < n_bounds + 1 && c.ok(); ++j) e.counts.push_back(c.u64());
    e.count = c.u64();
    e.sum = c.f64();
    if (c.ok()) hists.push_back(std::move(e));
  }
  if (!c.ok()) return false;

  for (const auto& e : counters) metrics.counter(e.name, e.entity).inc(e.value);
  for (const auto& e : gauges) metrics.gauge(e.name, e.entity).set(e.value);
  for (auto& e : hists) {
    auto& hist = metrics.histogram(e.name, e.bounds, e.entity);
    if (!hist.restore(e.counts, e.count, e.sum)) {
      // Bounds collided with an existing histogram of a different shape:
      // the checkpoint disagrees with the registry it restores into.
      return false;
    }
  }
  return true;
}

// --- trace spans / flight recorder ---

void save_spans(Buf& b, const std::vector<telemetry::TraceSpan>& spans) {
  b.u64(spans.size());
  for (const auto& s : spans) {
    b.u64(static_cast<std::uint64_t>(s.kind));
    b.u64(s.entity);
    b.i64(s.start_us);
    b.i64(s.end_us);
    b.u64(s.detail);
  }
}

bool load_spans(Cursor& c, std::vector<telemetry::TraceSpan>& out) {
  const std::uint64_t n = c.u64();
  if (!c.ok() || !plausible_count(c, n, 5)) return false;
  std::vector<telemetry::TraceSpan> spans;
  spans.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n && c.ok(); ++i) {
    telemetry::TraceSpan s;
    const std::uint64_t kind = c.u64();
    if (kind > static_cast<std::uint64_t>(telemetry::SpanKind::kShardQuarantine)) c.fail();
    s.kind = static_cast<telemetry::SpanKind>(kind);
    s.entity = c.u64();
    s.start_us = c.i64();
    s.end_us = c.i64();
    s.detail = c.u64();
    if (c.ok()) spans.push_back(s);
  }
  if (!c.ok()) return false;
  out = std::move(spans);
  return true;
}

void save_recorder(Buf& b, const telemetry::FlightRecorder& recorder) {
  b.u64(recorder.dropped() + recorder.size());  // lifetime total recorded
  save_spans(b, recorder.snapshot());
}

bool load_recorder(Cursor& c, telemetry::FlightRecorder& recorder) {
  const std::uint64_t recorded = c.u64();
  std::vector<telemetry::TraceSpan> spans;
  if (!load_spans(c, spans)) return false;
  if (!recorder.restore(spans, recorded)) {
    c.fail();
    return false;
  }
  return true;
}

// --- two-tier classifier ---

void save_classifier(Buf& b, const classify::TwoTierClassifier& classifier) {
  b.u64(classifier.slow_path_calls());
  const auto& stats = classifier.cache().stats();
  b.u64(stats.hits);
  b.u64(stats.misses);
  b.u64(stats.evictions);
  b.u64(stats.pinned);
  const auto entries = classifier.cache().snapshot();
  b.u64(entries.size());
  for (const auto& e : entries) {
    b.u64(e.key.client_mac);
    b.u64((std::uint64_t{e.key.src_addr} << 32) | e.key.dst_addr);
    b.u64((std::uint64_t{e.key.src_port} << 32) | (std::uint64_t{e.key.dst_port} << 16) |
          e.key.protocol);
    b.u64(static_cast<std::uint64_t>(e.verdict));
    b.u64(e.slow_seen);
  }
}

bool load_classifier(Cursor& c, classify::TwoTierClassifier& classifier) {
  const std::uint64_t slow_calls = c.u64();
  classify::VerdictCache::Stats stats;
  stats.hits = c.u64();
  stats.misses = c.u64();
  stats.evictions = c.u64();
  stats.pinned = c.u64();
  const std::uint64_t count = c.u64();
  if (!c.ok()) return false;
  if (count > classifier.cache().capacity()) return false;
  std::vector<classify::VerdictCache::SavedEntry> entries;
  entries.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count && c.ok(); ++i) {
    classify::VerdictCache::SavedEntry e;
    e.key.client_mac = c.u64();
    const std::uint64_t addrs = c.u64();
    e.key.src_addr = static_cast<std::uint32_t>(addrs >> 32);
    e.key.dst_addr = static_cast<std::uint32_t>(addrs);
    const std::uint64_t ports = c.u64();
    if (ports >> 48 != 0) c.fail();
    e.key.src_port = static_cast<std::uint16_t>(ports >> 32);
    e.key.dst_port = static_cast<std::uint16_t>(ports >> 16);
    e.key.protocol = static_cast<std::uint8_t>(ports);
    const std::uint64_t verdict = c.u64();
    if (verdict > static_cast<std::uint64_t>(classify::AppId::kXboxLive)) c.fail();
    e.verdict = static_cast<classify::AppId>(verdict);
    const std::uint64_t slow_seen = c.u64();
    if (slow_seen > std::numeric_limits<std::uint32_t>::max()) c.fail();
    e.slow_seen = static_cast<std::uint32_t>(slow_seen);
    if (c.ok()) entries.push_back(e);
  }
  if (!c.ok()) return false;
  classifier.cache().restore(entries, stats);
  classifier.restore(slow_calls);
  return true;
}

// --- world config ---

/// The memory ceiling a restored streaming campaign runs under. Arbitrary
/// but harmless: output is byte-identical for ANY nonzero ceiling, so this
/// only decides when the resumed process starts spilling.
constexpr std::uint64_t kRestoredCeilingMb = 4096;

void save_world_config(Buf& b, const sim::WorldConfig& config) {
  b.u64(static_cast<std::uint64_t>(config.fleet.epoch));
  b.i64(config.fleet.network_count);
  b.u64(static_cast<std::uint64_t>(config.fleet.model));
  b.u64(config.fleet.seed);
  for (const double d : config.fleet.density_mix) b.f64(d);
  b.f64(config.client_scale);
  b.u64(config.seed);
  save_fault_spec(b, config.faults);
  b.u64(config.supervision.max_shard_retries);
  b.f64(config.supervision.shard_deadline_hours);
  b.boolean(config.supervision.capture_checkpoints);
  // v4: the streaming-harvest bit. Whether the campaign drains shards at
  // phase boundaries is simulated state (it adds poll cycles), so a resume
  // must reproduce it — but only the on/off bit. The ceiling VALUE and the
  // spill directory are host resource knobs like `threads`: any nonzero
  // ceiling yields byte-identical output, so serializing the value would
  // make checkpoint bytes differ between behaviorally identical runs.
  b.boolean(config.mem_ceiling_mb > 0);
  // v5: mobility knobs. All of them shape simulated behavior (walk draws,
  // handoff decisions, roster membership), so a resume must reproduce every
  // one — unlike threads or the memory ceiling, none is a host knob.
  b.boolean(config.mobility.enabled);
  b.f64(config.mobility.speed_mps);
  b.f64(config.mobility.pause_mean_s);
  b.u64(static_cast<std::uint64_t>(config.mobility.steps_per_week));
  b.u64(static_cast<std::uint64_t>(config.mobility.handoff_settle_steps));
  b.f64(config.mobility.handoff_hysteresis_db);
  b.f64(config.mobility.band_steer_bonus_db);
  b.f64(config.mobility.roam_probability);
  // v6: mesh backhaul knobs. Like mobility, every one shapes simulated
  // behavior (gateway draws, routing, relay accounting), so a resume must
  // reproduce them all.
  b.f64(config.mesh.mesh_fraction);
  b.u64(static_cast<std::uint64_t>(config.mesh.max_hops));
  b.f64(config.mesh.relay_floor_dbm);
  b.f64(config.mesh.drift_sigma_db);
}

bool load_world_config(Cursor& c, sim::WorldConfig& out) {
  sim::WorldConfig cfg;
  const std::uint64_t epoch = c.u64();
  if (epoch > static_cast<std::uint64_t>(deploy::Epoch::kJan2015)) c.fail();
  cfg.fleet.epoch = static_cast<deploy::Epoch>(epoch);
  const std::int64_t networks = c.i64();
  // Reconstruction allocates per network; cap at a sane fleet size so a
  // corrupted count cannot balloon memory before validation catches it.
  if (networks < 0 || networks > 1'000'000) c.fail();
  cfg.fleet.network_count = static_cast<int>(networks);
  const std::uint64_t model = c.u64();
  if (model > static_cast<std::uint64_t>(deploy::ApModel::kMr18)) c.fail();
  cfg.fleet.model = static_cast<deploy::ApModel>(model);
  cfg.fleet.seed = c.u64();
  for (double& d : cfg.fleet.density_mix) {
    d = c.f64();
    if (!(d >= 0.0 && d <= 1.0)) c.fail();  // also rejects NaN
  }
  cfg.client_scale = c.f64();
  if (!(cfg.client_scale >= 0.0 && cfg.client_scale <= 1e6)) c.fail();
  cfg.seed = c.u64();
  if (!load_fault_spec(c, cfg.faults)) return false;
  cfg.supervision.max_shard_retries = c.u64();
  // Each retry can serialize + restore a whole shard; an absurd count is
  // corruption, not a scenario.
  if (cfg.supervision.max_shard_retries > 1000) c.fail();
  cfg.supervision.shard_deadline_hours = c.f64();
  if (!(cfg.supervision.shard_deadline_hours >= 0.0) ||
      std::isinf(cfg.supervision.shard_deadline_hours)) {
    c.fail();
  }
  cfg.supervision.capture_checkpoints = c.boolean();
  // Streaming on restores with a default ceiling (output is identical for
  // any nonzero value); the actual bound and spill directory are the
  // resuming host's business, not the checkpoint's.
  cfg.mem_ceiling_mb = c.boolean() ? kRestoredCeilingMb : 0;
  cfg.mobility.enabled = c.boolean();
  cfg.mobility.speed_mps = c.f64();
  // The ranges mirror MobilityConfig::clamped(): a value the clamp would
  // have rewritten cannot have produced this checkpoint.
  if (!(cfg.mobility.speed_mps > 0.0 && cfg.mobility.speed_mps <= 10.0)) c.fail();
  cfg.mobility.pause_mean_s = c.f64();
  if (!(cfg.mobility.pause_mean_s >= 0.0 && cfg.mobility.pause_mean_s <= 1e6)) c.fail();
  const std::uint64_t steps = c.u64();
  if (steps < 1 || steps > 100'000) c.fail();
  cfg.mobility.steps_per_week = static_cast<int>(steps);
  const std::uint64_t settle = c.u64();
  if (settle < 1 || settle > 100) c.fail();
  cfg.mobility.handoff_settle_steps = static_cast<int>(settle);
  cfg.mobility.handoff_hysteresis_db = c.f64();
  if (!(cfg.mobility.handoff_hysteresis_db >= 0.0 &&
        cfg.mobility.handoff_hysteresis_db <= 50.0)) {
    c.fail();
  }
  cfg.mobility.band_steer_bonus_db = c.f64();
  if (!(cfg.mobility.band_steer_bonus_db >= -20.0 &&
        cfg.mobility.band_steer_bonus_db <= 20.0)) {
    c.fail();
  }
  cfg.mobility.roam_probability = c.f64();
  if (!(cfg.mobility.roam_probability >= 0.0 && cfg.mobility.roam_probability <= 1.0)) {
    c.fail();
  }
  // The ranges mirror mesh::MeshConfig::clamped(): a value the clamp would
  // have rewritten cannot have produced this checkpoint.
  cfg.mesh.mesh_fraction = c.f64();
  if (!(cfg.mesh.mesh_fraction >= 0.0 && cfg.mesh.mesh_fraction <= 0.95)) c.fail();
  const std::uint64_t mesh_hops = c.u64();
  if (mesh_hops < 1 || mesh_hops > 16) c.fail();
  cfg.mesh.max_hops = static_cast<int>(mesh_hops);
  cfg.mesh.relay_floor_dbm = c.f64();
  if (!(cfg.mesh.relay_floor_dbm >= -100.0 && cfg.mesh.relay_floor_dbm <= -40.0)) {
    c.fail();
  }
  cfg.mesh.drift_sigma_db = c.f64();
  if (!(cfg.mesh.drift_sigma_db >= 0.0 && cfg.mesh.drift_sigma_db <= 10.0)) c.fail();
  if (!c.ok()) return false;
  out = cfg;
  return true;
}

// --- one shard's full mutable state ---
//
// The campaign container's kShard sections and the supervision layer's
// retry snapshots are the same byte sequence: a supervised retry is a
// checkpoint restore scoped to one shard.

void save_shard_state(Buf& b, sim::NetworkShard& shard) {
  b.u64(shard.id().value());
  save_rng(b, shard.rng().state());
  save_rng(b, shard.fault_rng().state());
  save_injector(b, shard.injector());
  b.u64(shard.aps().size());
  for (auto& ap : shard.aps()) {
    b.u64(ap.id().value());
    save_tunnel(b, ap.tunnel());
  }
  b.u64(shard.links().size());
  for (const auto& link : shard.links()) save_link(b, link.state());
  save_store(b, shard.store());
  save_poller(b, shard.poller());
  save_metrics(b, shard.metrics());
  save_recorder(b, shard.recorder());
  b.u64(shard.flows_classified());
  b.u64(shard.flows_misclassified());
  save_classifier(b, shard.classifier());
  // v5 mobility block. The enabled bit always travels (it is simulated
  // behavior); the state behind it only when mobility is on, so disabled
  // checkpoints cost one byte.
  b.boolean(shard.mobility_enabled());
  if (shard.mobility_enabled()) {
    save_rng(b, shard.mobility_rng().state());
    const auto& roster = shard.mobility_roster();
    b.u64(roster.size());
    for (const auto& per_ap : roster) {
      b.u64(per_ap.size());
      for (const sim::MobileClient& m : per_ap) {
        b.boolean(m.walks);
        b.boolean(m.dual_band);
        b.f64(m.motion.pos.x);
        b.f64(m.motion.pos.y);
        b.f64(m.motion.target.x);
        b.f64(m.motion.target.y);
        b.f64(m.motion.pause_s);
        b.u64(m.serving_ap);
        b.u64(m.serving_band == phy::Band::k5GHz ? 1 : 0);
        b.u64(m.pending_steps);
        b.u64(m.pending_ap);
        b.u64(m.pending_band == phy::Band::k5GHz ? 1 : 0);
      }
    }
  }
  // v6 mesh block, same shape as mobility: the enabled bit always travels,
  // the state behind it only when mesh is on.
  b.boolean(shard.mesh_enabled());
  if (shard.mesh_enabled()) {
    save_rng(b, shard.mesh_rng().state());
    const auto& routes = shard.mesh_routes();
    b.u64(routes.size());
    for (const mesh::RouteEntry& r : routes) {
      b.boolean(r.is_gateway);
      b.boolean(r.routable);
      b.u64(r.next_hop);
      b.u64(r.gateway);
      b.u64(r.hop_count);
      b.f64(r.next_hop_rx_dbm);
    }
    const auto& busy = shard.mesh_busy_until_us();
    b.u64(busy.size());
    for (const std::int64_t t : busy) b.i64(t);
    b.u64(shard.mesh_partition_lost());
  }
}

bool load_shard_state(Cursor& c, sim::NetworkShard& shard) {
  const std::uint64_t net_id = c.u64();
  if (!c.ok()) return false;
  if (net_id != shard.id().value()) return false;

  Rng::State rng_state;
  Rng::State fault_rng_state;
  if (!load_rng(c, rng_state) || !load_rng(c, fault_rng_state)) return false;
  shard.rng().restore(rng_state);
  shard.fault_rng().restore(fault_rng_state);

  if (!load_injector(c, shard.injector())) return false;

  const std::uint64_t ap_count = c.u64();
  if (!c.ok()) return false;
  if (ap_count != shard.aps().size()) return false;
  for (auto& ap : shard.aps()) {
    const std::uint64_t ap_id = c.u64();
    if (!c.ok()) return false;
    if (ap_id != ap.id().value()) return false;
    if (!load_tunnel(c, ap.tunnel())) return false;
  }

  const std::uint64_t link_count = c.u64();
  if (!c.ok()) return false;
  if (link_count != shard.links().size()) return false;
  for (auto& link : shard.links()) {
    sim::MeshLink::State state;
    if (!load_link(c, state)) return false;
    link.restore(state);
  }

  // Store and metrics loads overlay (add/inc) into their target, which is
  // exact only on a fresh shard. A supervised retry restores into a shard
  // that already ran part of a phase, so wipe both first: a restore is an
  // overwrite, never an accumulation.
  shard.store() = backend::ReportStore{};
  shard.metrics().clear();
  if (!load_store(c, shard.store())) return false;
  if (!load_poller(c, shard.poller())) return false;
  if (!load_metrics(c, shard.metrics())) return false;
  if (!load_recorder(c, shard.recorder())) return false;

  const std::uint64_t classified = c.u64();
  const std::uint64_t misclassified = c.u64();
  if (!c.ok()) return false;
  if (!load_classifier(c, shard.classifier())) return false;

  // v5 mobility block. The rebuilt shard already constructed its roster
  // deterministically from the (already-validated) config, so every count
  // and index here is checked against ground truth: a section that lies
  // about roster shape is corruption, not a scenario.
  const bool mobility_enabled = c.boolean();
  if (!c.ok()) return false;
  if (mobility_enabled != shard.mobility_enabled()) return false;
  if (mobility_enabled) {
    Rng::State mobility_rng_state;
    if (!load_rng(c, mobility_rng_state)) return false;
    shard.mobility_rng().restore(mobility_rng_state);
    auto& roster = shard.mobility_roster();
    const std::uint64_t ap_rosters = c.u64();
    if (!c.ok()) return false;
    if (ap_rosters != roster.size()) return false;
    const double width = shard.network().site.width_m;
    const double height = shard.network().site.height_m;
    const std::uint64_t n_aps = shard.aps().size();
    for (auto& per_ap : roster) {
      const std::uint64_t n = c.u64();
      if (!c.ok()) return false;
      if (n != per_ap.size()) return false;
      for (sim::MobileClient& m : per_ap) {
        m.walks = c.boolean();
        m.dual_band = c.boolean();
        m.motion.pos.x = c.f64();
        m.motion.pos.y = c.f64();
        m.motion.target.x = c.f64();
        m.motion.target.y = c.f64();
        // Walks never leave the site rectangle; out-of-bounds positions
        // (or NaN) are corruption.
        if (!(m.motion.pos.x >= 0.0 && m.motion.pos.x <= width)) c.fail();
        if (!(m.motion.pos.y >= 0.0 && m.motion.pos.y <= height)) c.fail();
        if (!(m.motion.target.x >= 0.0 && m.motion.target.x <= width)) c.fail();
        if (!(m.motion.target.y >= 0.0 && m.motion.target.y <= height)) c.fail();
        m.motion.pause_s = c.f64();
        if (!(m.motion.pause_s >= 0.0) || std::isinf(m.motion.pause_s)) c.fail();
        const std::uint64_t serving = c.u64();
        if (serving >= n_aps) c.fail();
        m.serving_ap = static_cast<std::size_t>(serving);
        const std::uint64_t serving_band = c.u64();
        if (serving_band > 1) c.fail();
        m.serving_band = serving_band == 1 ? phy::Band::k5GHz : phy::Band::k2_4GHz;
        const std::uint64_t pending_steps = c.u64();
        if (pending_steps > 100) c.fail();  // settle clamp caps this at 100
        m.pending_steps = static_cast<std::uint32_t>(pending_steps);
        const std::uint64_t pending = c.u64();
        if (pending >= n_aps) c.fail();
        m.pending_ap = static_cast<std::size_t>(pending);
        const std::uint64_t pending_band = c.u64();
        if (pending_band > 1) c.fail();
        m.pending_band = pending_band == 1 ? phy::Band::k5GHz : phy::Band::k2_4GHz;
        if (!c.ok()) return false;
      }
    }
  }

  // v6 mesh block. Mesh membership is rebuilt deterministically from the
  // (already-validated) config, so the saved routing table is checked
  // against that ground truth: a dangling next-hop index, a self-loop, a
  // hop count past the clamp cap, or a gateway flag that disagrees with the
  // rebuilt membership is corruption, not a scenario.
  const bool mesh_enabled = c.boolean();
  if (!c.ok()) return false;
  if (mesh_enabled != shard.mesh_enabled()) return false;
  std::uint64_t mesh_partition_lost = 0;
  if (mesh_enabled) {
    Rng::State mesh_rng_state;
    if (!load_rng(c, mesh_rng_state)) return false;
    shard.mesh_rng().restore(mesh_rng_state);
    const std::uint64_t n_aps = shard.aps().size();
    const auto& is_mesh = shard.mesh_membership();
    const std::uint64_t route_count = c.u64();
    if (!c.ok()) return false;
    // Empty only for a checkpoint cut before the first campaign phase;
    // otherwise exactly one entry per AP.
    if (route_count != 0 && route_count != n_aps) return false;
    std::vector<mesh::RouteEntry> routes;
    routes.reserve(static_cast<std::size_t>(route_count));
    for (std::uint64_t i = 0; i < route_count && c.ok(); ++i) {
      mesh::RouteEntry r;
      r.is_gateway = c.boolean();
      r.routable = c.boolean();
      if (r.is_gateway == is_mesh[static_cast<std::size_t>(i)]) c.fail();
      const std::uint64_t next_hop = c.u64();
      if (next_hop >= n_aps) c.fail();  // dangling AP index
      r.next_hop = static_cast<std::uint32_t>(next_hop);
      const std::uint64_t gateway = c.u64();
      if (gateway >= n_aps) c.fail();
      r.gateway = static_cast<std::uint32_t>(gateway);
      const std::uint64_t hop_count = c.u64();
      if (hop_count > 16) c.fail();  // max_hops clamp caps paths at 16
      r.hop_count = static_cast<std::uint32_t>(hop_count);
      if (r.is_gateway || !r.routable) {
        // Gateways and unroutable APs point at themselves with no hops.
        if (next_hop != i || gateway != i || hop_count != 0) c.fail();
      } else {
        if (next_hop == i) c.fail();  // self-loop
        if (hop_count == 0) c.fail();
        if (gateway < n_aps && is_mesh[static_cast<std::size_t>(gateway)]) {
          c.fail();  // a relay path must terminate at a gateway
        }
      }
      r.next_hop_rx_dbm = c.f64();
      if (!(r.next_hop_rx_dbm >= -1000.0 && r.next_hop_rx_dbm <= 1000.0)) c.fail();
      if (c.ok()) routes.push_back(r);
    }
    const std::uint64_t busy_count = c.u64();
    if (!c.ok()) return false;
    if (busy_count != n_aps) return false;
    std::vector<std::int64_t> busy;
    busy.reserve(static_cast<std::size_t>(busy_count));
    for (std::uint64_t i = 0; i < busy_count && c.ok(); ++i) {
      const std::int64_t t = c.i64();
      if (t < 0) c.fail();  // relay horizons never precede the epoch
      busy.push_back(t);
    }
    mesh_partition_lost = c.u64();
    if (!c.ok()) return false;
    shard.mesh_routes() = std::move(routes);
    shard.mesh_busy_until_us() = std::move(busy);
  }

  if (!c.at_end()) return false;  // trailing bytes are corruption too
  shard.restore_flow_counters(classified, misclassified);
  if (mesh_enabled) shard.restore_mesh_partition_lost(mesh_partition_lost);
  return true;
}

// --- degraded-run manifest ---

void save_manifest(Buf& b, const failsafe::DegradedRunManifest& manifest) {
  b.u64(manifest.incidents.size());
  for (const auto& inc : manifest.incidents) {
    b.u64(inc.network);
    b.str(inc.phase);
    b.str(inc.error);
    b.i64(inc.sim_us);
    b.u64(inc.failures);
    b.u64(inc.retries);
    b.f64(inc.backoff_hours);
    b.u64(static_cast<std::uint64_t>(inc.outcome));
    save_ledger(b, inc.ledger);
  }
}

bool load_manifest(Cursor& c, failsafe::DegradedRunManifest& out) {
  const std::uint64_t n = c.u64();
  if (!c.ok() || !plausible_count(c, n, 10)) return false;
  failsafe::DegradedRunManifest manifest;
  manifest.incidents.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n && c.ok(); ++i) {
    failsafe::ShardIncident inc;
    inc.network = c.u64();
    inc.phase = c.str();
    inc.error = c.str();
    inc.sim_us = c.i64();
    inc.failures = c.u64();
    inc.retries = c.u64();
    inc.backoff_hours = c.f64();
    if (!(inc.backoff_hours >= 0.0) || std::isinf(inc.backoff_hours)) c.fail();
    const std::uint64_t outcome = c.u64();
    if (outcome > static_cast<std::uint64_t>(failsafe::IncidentOutcome::kQuarantined)) {
      c.fail();
    }
    inc.outcome = static_cast<failsafe::IncidentOutcome>(outcome);
    if (inc.failures == 0) c.fail();  // an incident without a failure is corruption
    if (!load_ledger(c, inc.ledger)) return false;
    if (c.ok()) manifest.incidents.push_back(std::move(inc));
  }
  if (!c.ok()) return false;
  out = std::move(manifest);
  return true;
}

}  // namespace wlm::ckpt

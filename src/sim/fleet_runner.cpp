#include "sim/fleet_runner.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>

// Deliberate layering exception (see src/sim/CMakeLists.txt): the
// supervisor's retry snapshots are ckpt per-shard sections, and wiring the
// serializers here keeps failsafe itself sim-independent.
#include "ckpt/container.hpp"
#include "ckpt/state.hpp"
#include "telemetry/profile.hpp"

namespace wlm::sim {

FleetRunner::FleetRunner(WorldConfig config) : config_(std::move(config)) {
  // Knob validation: a bad scale or fraction degrades to the nearest legal
  // value instead of silently producing nonsense (negative client counts,
  // chance() calls outside [0,1]).
  if (!(config_.client_scale > 0.0)) config_.client_scale = 0.0;  // also catches NaN
  config_.faults = config_.faults.clamped();
  config_.mobility = config_.mobility.clamped();
  config_.mesh = config_.mesh.clamped();

  // Segment vault knobs: the MiB ceiling becomes a byte budget for sealed
  // segments; spill decisions inside the vault key on deterministic byte
  // accounting only (never getrusage), so output is spill-invariant. Reads
  // decode ahead on as many threads as the campaigns run on and still
  // deliver in canonical order, so output is --jobs-invariant too.
  fleet_tsdb_.set_mem_ceiling(config_.mem_ceiling_mb * 1024 * 1024);
  fleet_tsdb_.set_spill_dir(config_.spill_dir);
  fleet_tsdb_.set_read_threads(config_.threads);

  ShardConfig shard_config;
  shard_config.epoch = config_.fleet.epoch;
  shard_config.client_scale = config_.client_scale;
  shard_config.seed = config_.seed;
  shard_config.faults = config_.faults;
  shard_config.mobility = config_.mobility;
  shard_config.mesh = config_.mesh;

  // Shard construction is independent per network (each shard's RNG is a
  // substream of the base seed), so it parallelizes like the campaigns do,
  // and starts before the fleet is complete: this thread generates the
  // networks in order, helpers build each network's shard as soon as it is
  // published, and this thread joins them once the generator is done. The
  // `build` phase is the part after the generator finishes.
  const auto count = static_cast<std::size_t>(std::max(0, config_.fleet.network_count));
  shards_.resize(count);
  telemetry::Stopwatch build_watch;
  parallel_for(
      count,
      [&](std::size_t i) {
        // data(), not operator[]: the generator may still be growing
        // size(), which a checked operator[] would read.
        shards_[i] = std::make_unique<NetworkShard>(fleet_.networks.data()[i], shard_config);
      },
      [&](const std::function<void(std::size_t)>& publish) {
        deploy::generate_fleet(config_.fleet, fleet_, publish);
        build_watch.restart();
      });

  // Flat views and the AP lookup are built serially, in fleet order.
  std::size_t total_aps = 0;
  std::size_t total_links = 0;
  for (const auto& shard : shards_) {
    total_aps += shard->aps().size();
    total_links += shard->links().size();
  }
  ap_ptrs_.reserve(total_aps);
  link_ptrs_.reserve(total_links);
  for (const auto& shard : shards_) {
    for (auto& ap : shard->aps()) {
      ap_ptrs_.push_back(&ap);
      ap_lookup_[ap.id().value()] = &ap;
    }
    for (auto& link : shard->links()) link_ptrs_.push_back(&link);
  }

  // Supervision hooks: retry snapshots are ckpt per-shard sections, so a
  // supervised retry is a checkpoint restore scoped to one shard.
  failsafe::ShardHooks hooks;
  hooks.network_id = [this](std::size_t i) {
    return static_cast<std::uint64_t>(shards_[i]->id().value());
  };
  hooks.snapshot = [this](std::size_t i) {
    ckpt::Buf b;
    ckpt::save_shard_state(b, *shards_[i]);
    return b.take();
  };
  hooks.restore = [this](std::size_t i, const std::vector<std::uint8_t>& bytes) {
    ckpt::Cursor c(bytes);
    return ckpt::load_shard_state(c, *shards_[i]);
  };
  hooks.ledger = [this](std::size_t i) { return shards_[i]->loss_ledger(); };
  supervisor_.configure(config_.supervision, shards_.size(), std::move(hooks));

  telemetry::global_profiler().record("build", build_watch.seconds());
}

void FleetRunner::parallel_for(
    std::size_t count, const std::function<void(std::size_t)>& fn,
    const std::function<void(const std::function<void(std::size_t)>&)>& produce) {
  // `published` counts the indices fn may run on; kStopped tells helpers
  // waiting for an index that will never come to leave. Without a producer
  // every index is published at once.
  constexpr std::size_t kStopped = SIZE_MAX;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> published{produce ? 0 : count};
  // The failure with the lowest index: an exception from fn on any thread
  // stops further claims and is rethrown here once every helper has joined.
  std::mutex error_mu;
  std::size_t error_index = SIZE_MAX;
  std::exception_ptr error;
  auto claim_loop = [&] {
    while (true) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      std::size_t ready = published.load(std::memory_order_acquire);
      while (ready <= i) {
        published.wait(ready, std::memory_order_acquire);
        ready = published.load(std::memory_order_acquire);
      }
      if (ready == kStopped) return;
      try {
        fn(i);
      } catch (...) {
        const std::lock_guard lock(error_mu);
        if (i < error_index) {
          error_index = i;
          error = std::current_exception();
        }
        next.store(count, std::memory_order_relaxed);
      }
    }
  };

  {
    // The calling thread is one of the `threads` workers, so at most
    // threads - 1 helpers run, and none when there is at most one index.
    const auto workers = static_cast<std::size_t>(std::max(1, config_.threads));
    const std::size_t helpers = count <= 1 ? 0 : std::min(workers, count) - 1;
    std::vector<std::thread> pool;
    // Joins every helper on any way out of this block, a throwing producer
    // included: no further index is claimed, and if the producer stopped
    // short, the helpers waiting for an index it never published are
    // released. Only this thread writes `published`.
    struct Joiner {
      std::atomic<std::size_t>& next;
      std::atomic<std::size_t>& published;
      std::size_t count;
      std::vector<std::thread>& pool;
      ~Joiner() {
        next.store(count, std::memory_order_relaxed);
        if (published.load(std::memory_order_relaxed) < count) {
          published.store(kStopped, std::memory_order_release);
          published.notify_all();
        }
        for (auto& t : pool) t.join();
      }
    } joiner{next, published, count, pool};
    pool.reserve(helpers);
    for (std::size_t t = 0; t < helpers; ++t) pool.emplace_back(claim_loop);

    if (produce) {
      produce([&](std::size_t i) {
        published.store(i + 1, std::memory_order_release);
        published.notify_all();
      });
    }
    claim_loop();
  }
  if (error) std::rethrow_exception(error);
}

void FleetRunner::run_supervised(const char* phase,
                                 const std::function<void(std::size_t)>& fn) {
  supervisor_.run_phase(phase, sim_now_us(), fn,
                        [&](const std::function<void(std::size_t)>& body) {
                          parallel_for(shards_.size(), body);
                        });
}

std::vector<tsdb::FleetStore::Sealed> FleetRunner::run_sealed(
    const char* phase, const std::function<void(NetworkShard&)>& work) {
  // A segment's bytes depend only on its shard's rows, so each task seals
  // its own shard and frees the shard's row store as soon as the segment
  // exists. Batch numbers are read here, on this thread, before any task
  // runs; the caller indexes the batches serially in fleet order, so the
  // vault's segment order is independent of worker scheduling.
  std::vector<std::uint32_t> batch_seq(shards_.size());
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    batch_seq[i] = fleet_tsdb_.next_batch_seq(shards_[i]->id().value());
  }
  std::vector<tsdb::FleetStore::Sealed> sealed(shards_.size());
  run_supervised(phase, [&](std::size_t i) {
    NetworkShard& shard = *shards_[i];
    work(shard);
    sealed[i] =
        tsdb::FleetStore::seal(shard.id().value(), batch_seq[i], std::move(shard.store()));
  });
  return sealed;
}

void FleetRunner::index_sealed(std::vector<tsdb::FleetStore::Sealed> sealed) {
  for (auto& batch : sealed) fleet_tsdb_.add_sealed(std::move(batch));
  if (const tsdb::Error err = fleet_tsdb_.maybe_spill()) {
    // An unwritable spill dir is an I/O problem, not a simulation problem:
    // segments stay resident (correct, just over budget) and the operator
    // hears about it once per failing phase.
    std::fprintf(stderr, "wlm: tsdb spill failed (%s): %s\n",
                 tsdb::status_name(err.status), err.detail.c_str());
  }
}

ApRuntime* FleetRunner::find_ap(ApId id) {
  const auto it = ap_lookup_.find(id.value());
  return it == ap_lookup_.end() ? nullptr : it->second;
}

std::size_t FleetRunner::client_count() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) total += shard->client_count();
  return total;
}

void FleetRunner::run_campaign_phase(const char* phase, double sim_hours,
                                     const std::function<void(NetworkShard&)>& fn) {
  const telemetry::Stopwatch watch;
  if (config_.mem_ceiling_mb == 0) {
    run_supervised(phase, [&](std::size_t i) { fn(*shards_[i]); });
  } else {
    // Streaming harvest: each shard's task drains what the phase queued, at
    // the phase's end clock, and seals it, so the frames and rows of at
    // most `threads` shards are alive at once. Supervision covers the
    // drain and the seal like the campaign itself.
    const std::int64_t end_us = sim_us(campaign_sim_hours_ + sim_hours);
    index_sealed(run_sealed(phase, [&](NetworkShard& shard) {
      fn(shard);
      shard.drain_connected(end_us);
    }));
  }
  campaign_sim_hours_ += sim_hours;
  telemetry::global_profiler().record(phase, watch.seconds());
}

void FleetRunner::run_usage_week(int reports_per_week,
                                 const std::vector<traffic::UpdateSpike>& spikes) {
  run_campaign_phase("usage_week", Duration::days(7).as_hours(), [&](NetworkShard& shard) {
    shard.run_usage_week(reports_per_week, spikes);
  });
}

void FleetRunner::snapshot_clients(SimTime t) {
  run_campaign_phase("snapshot", 0.0,
                     [&](NetworkShard& shard) { shard.snapshot_clients(t); });
}

void FleetRunner::run_mr16_interference(SimTime t) {
  run_campaign_phase("mr16", 0.0,
                     [&](NetworkShard& shard) { shard.run_mr16_interference(t); });
}

void FleetRunner::run_mr18_scan(SimTime t, double hour) {
  run_campaign_phase("mr18", 0.0,
                     [&](NetworkShard& shard) { shard.run_mr18_scan(t, hour); });
}

void FleetRunner::run_link_windows(SimTime t) {
  run_campaign_phase("link_windows", 0.0,
                     [&](NetworkShard& shard) { shard.run_link_windows(t); });
}

void FleetRunner::harvest(HarvestMode mode) {
  // Each shard's task drains its tunnels (its poller touches only its own
  // tunnels and store) and seals what it drained, so the decoded rows of at
  // most `threads` shards are alive at once. The merge then indexes the
  // kept batches serially in fleet order and rebuilds the telemetry.
  const telemetry::Stopwatch drain_watch;
  std::vector<tsdb::FleetStore::Sealed> sealed =
      run_sealed("harvest_drain", [mode](NetworkShard& shard) { shard.harvest_local(mode); });
  telemetry::global_profiler().record("harvest_drain", drain_watch.seconds());

  const telemetry::Stopwatch merge_watch;
  const std::int64_t now_us = sim_now_us();
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    // guard_merge is false for quarantined shards (their work is accounted
    // as lost_supervision, never merged) and for shards the harvest.merge
    // failpoint just quarantined. A quarantined shard may have sealed
    // batches earlier (streaming harvest runs before the failure): those
    // are dropped with this one, so no partial work reaches any analysis.
    if (supervisor_.guard_merge(i, now_us)) continue;
    sealed[i] = {};
    fleet_tsdb_.drop_network(shards_[i]->id().value());
  }
  index_sealed(std::move(sealed));

  // Rebuild the merged telemetry from scratch each harvest: shard registries
  // and recorders are cumulative, so re-merging (not appending) keeps a
  // second harvest from double-counting. Fleet order, like the store merge,
  // so the snapshot is bit-identical for any thread count. Quarantined
  // shards are excluded — their surviving peers' series must be identical
  // to a clean run's — and the supervisor then re-derives its own metrics
  // and spans from the manifest (nothing, on a clean run).
  metrics_.clear();
  trace_.clear();
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    if (supervisor_.quarantined(i)) continue;
    metrics_.merge(shards_[i]->metrics());
    const auto spans = shards_[i]->recorder().snapshot();
    trace_.insert(trace_.end(), spans.begin(), spans.end());
  }
  // A quarantined shard still contributes its (reattributed) ledger view to
  // the fleet ledger gauges, so `wlmctl stats` reconciliation keeps closing.
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    if (!supervisor_.quarantined(i)) continue;
    const fault::LossLedger view =
        failsafe::ShardSupervisor::quarantined_view(shards_[i]->loss_ledger());
    metrics_.gauge("wlm_ledger_generated").add(static_cast<double>(view.generated));
    metrics_.gauge("wlm_ledger_shed").add(static_cast<double>(view.shed));
    metrics_.gauge("wlm_ledger_lost_reboot").add(static_cast<double>(view.lost_reboot));
    metrics_.gauge("wlm_ledger_lost_corruption")
        .add(static_cast<double>(view.lost_corruption));
    metrics_.gauge("wlm_ledger_lost_supervision")
        .add(static_cast<double>(view.lost_supervision));
  }
  supervisor_.publish(metrics_, trace_);
  metrics_.gauge("wlm_fleet_networks").set(static_cast<double>(shards_.size()));
  metrics_.gauge("wlm_fleet_aps").set(static_cast<double>(ap_ptrs_.size()));
  metrics_.gauge("wlm_fleet_clients").set(static_cast<double>(client_count()));
  metrics_.gauge("wlm_fleet_mesh_links").set(static_cast<double>(link_ptrs_.size()));
  // Segment-vault gauges. Only spill-invariant values belong here: where
  // the bytes live (resident vs spilled, spill file count) depends on the
  // ceiling pressing, and the export must be bit-identical across spill
  // on/off for a fixed config. Those splits stay on FleetStore::stats(),
  // for bench records and stderr.
  const tsdb::FleetStoreStats& ts = fleet_tsdb_.stats();
  metrics_.gauge("wlm_tsdb_segments_sealed").set(static_cast<double>(ts.segments_sealed));
  metrics_.gauge("wlm_tsdb_reports").set(static_cast<double>(ts.reports));
  metrics_.gauge("wlm_tsdb_raw_wire_bytes").set(static_cast<double>(ts.raw_wire_bytes));
  metrics_.gauge("wlm_tsdb_segment_bytes").set(static_cast<double>(ts.segment_bytes()));
  metrics_.gauge("wlm_tsdb_compression_ratio").set(ts.compression_ratio());
  telemetry::global_profiler().record("harvest_merge", merge_watch.seconds());
}

void FleetRunner::for_each_link(const std::function<void(std::size_t, MeshLink&)>& fn) {
  // link_ptrs_ is shard-major, so shard i's links start where shard i-1's
  // end.
  std::vector<std::size_t> first(shards_.size() + 1, 0);
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    first[i + 1] = first[i] + shards_[i]->links().size();
  }
  parallel_for(shards_.size(), [&](std::size_t i) {
    for (std::size_t k = first[i]; k < first[i + 1]; ++k) fn(k, *link_ptrs_[k]);
  });
}

std::vector<SeriesPoint> FleetRunner::link_week_series(std::size_t link_index,
                                                       Duration step) {
  std::vector<SeriesPoint> series;
  if (link_index >= link_ptrs_.size()) return series;
  MeshLink& link = *link_ptrs_[link_index];
  ApRuntime* receiver = find_ap(link.to());
  if (receiver == nullptr) return series;
  for (SimTime t; t < SimTime::epoch() + Duration::days(7); t += step) {
    ProbeOutcomeModel model;
    model.receiver_utilization = serving_utilization(*receiver, link.band(), t.hour_of_day());
    model.hidden_fraction = ProbeOutcomeModel::default_hidden_fraction(link.band());
    const auto window = link.measure_window(model);
    series.push_back(SeriesPoint{t.since_epoch().as_hours(), window.ratio()});
  }
  return series;
}

std::uint64_t FleetRunner::flows_classified() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->flows_classified();
  return total;
}

std::uint64_t FleetRunner::flows_misclassified() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->flows_misclassified();
  return total;
}

fault::LossLedger FleetRunner::loss_ledger() const {
  fault::LossLedger total;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const fault::LossLedger shard_ledger = shards_[i]->loss_ledger();
    total.merge(supervisor_.quarantined(i)
                    ? failsafe::ShardSupervisor::quarantined_view(shard_ledger)
                    : shard_ledger);
  }
  return total;
}

void FleetRunner::restore_supervision(failsafe::DegradedRunManifest manifest) {
  supervisor_.restore_manifest(std::move(manifest));
}

double FleetRunner::mean_report_bytes_per_ap() const {
  if (ap_ptrs_.empty()) return 0.0;
  double total = 0.0;
  for (const ApRuntime* ap : ap_ptrs_) {
    total += static_cast<double>(ap->tunnel().stats().bytes_delivered);
  }
  return total / static_cast<double>(ap_ptrs_.size());
}

}  // namespace wlm::sim

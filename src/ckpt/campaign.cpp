#include "ckpt/campaign.hpp"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "ckpt/state.hpp"
#include "failsafe/failpoint.hpp"
#include "tsdb/fleet_store.hpp"

namespace wlm::ckpt {

namespace {

Error section_error(const Cursor& c, const std::string& what) {
  // The cursor separates "bytes are broken" from "bytes disagree with the
  // rebuilt world": a latched cursor is malformed input, an intact cursor
  // with a failed load is a config mismatch.
  if (!c.ok()) return {Status::kMalformed, what + ": malformed payload"};
  return {Status::kBadConfig, what + ": inconsistent with the rebuilt world"};
}

/// Adopts every kTsdbSegments payload into the rebuilt runner's vault, in
/// file order, then checks the adopted totals against the kFleetStore
/// summary. A segment validate() refuses is malformed; a valid segment of a
/// network the rebuilt fleet does not have is a config mismatch.
Error restore_vault(const Reader& reader, sim::FleetRunner& runner) {
  const auto payload = reader.find(SectionTag::kFleetStore);
  if (!payload) return {Status::kMalformed, "missing fleet store section"};
  Cursor c(*payload);
  VaultSummary summary;
  if (!load(c, summary) || !c.at_end()) {
    return {Status::kMalformed, "fleet store: malformed payload"};
  }
  const auto segments = reader.find_all(SectionTag::kTsdbSegments);
  if (segments.size() != summary.segments) {
    return {Status::kMalformed, "fleet store: " + std::to_string(segments.size()) +
                                    " segment sections, the summary claims " +
                                    std::to_string(summary.segments)};
  }
  std::vector<std::uint32_t> networks;
  for (const auto& shard : runner.shards()) networks.push_back(shard->id().value());
  std::sort(networks.begin(), networks.end());
  tsdb::FleetStore& vault = runner.fleet_tsdb();
  for (std::size_t i = 0; i < segments.size(); ++i) {
    const std::string what = "segment " + std::to_string(i);
    if (const auto err = vault.adopt_segment(segments[i])) {
      return {Status::kMalformed, what + ": " + tsdb::status_name(err.status)};
    }
    const std::uint32_t network = vault.info(vault.segment_count() - 1).network_id;
    if (!std::binary_search(networks.begin(), networks.end(), network)) {
      return {Status::kBadConfig,
              what + ": network " + std::to_string(network) + " is not in the rebuilt fleet"};
    }
  }
  if (vault.stats().reports != summary.reports) {
    return {Status::kMalformed, "fleet store: the segments hold " +
                                    std::to_string(vault.stats().reports) +
                                    " reports, the summary claims " +
                                    std::to_string(summary.reports)};
  }
  return {};
}

}  // namespace

std::vector<std::uint8_t> save_campaign(sim::FleetRunner& runner,
                                        const CampaignProgress& progress) {
  Writer w;

  CampaignProgress stamped = progress;
  stamped.sim_hours = runner.campaign_sim_hours();
  Buf meta;
  save_meta(meta, stamped, runner.loss_ledger());
  w.add_section(SectionTag::kMeta, meta.take());

  Buf config;
  save(config, runner.config());
  w.add_section(SectionTag::kConfig, config.take());

  // v8: the vault travels exactly as a spill file holds it, one
  // kTsdbSegments section per live segment in vault order, behind a
  // kFleetStore summary of what they add up to. Each segment is framed
  // straight from the vault (spilled ones read back, so the checkpoint
  // stands alone) into a container sized for them from the segment index.
  // A spill file that has become unreadable stops the sections short of the
  // summary, so any restore fails instead of resuming without its reports.
  const tsdb::FleetStore& vault = runner.fleet_tsdb();
  VaultSummary summary{vault.stats().reports, 0};
  std::size_t framed = 0;
  for (std::size_t i = 0; i < vault.segment_count(); ++i) {
    const auto info = vault.info(i);
    if (info.size == 0) continue;  // a dropped network's placeholder
    summary.segments += 1;
    framed += Writer::framed_size(SectionTag::kTsdbSegments, info.size);
  }
  Buf fleet_store;
  save(fleet_store, summary);
  w.reserve(Writer::framed_size(SectionTag::kFleetStore, fleet_store.data().size()) + framed);
  w.add_section(SectionTag::kFleetStore, fleet_store.take());
  (void)vault.for_each_segment([&w](std::size_t, std::span<const std::uint8_t> segment) {
    w.add_section(SectionTag::kTsdbSegments, segment);
  });

  Buf fleet_telemetry;
  save(fleet_telemetry, runner.metrics());
  save(fleet_telemetry, runner.trace());
  w.add_section(SectionTag::kFleetTelemetry, fleet_telemetry.take());

  // Shards serialize on this (the orchestrating) thread in fleet order, so
  // the container bytes are byte-identical for any --jobs.
  for (const auto& shard : runner.shards()) {
    Buf b;
    save_shard_state(b, *shard);
    w.add_section(SectionTag::kShard, b.take());
  }

  // The supervision manifest rides in every checkpoint (usually empty): a
  // resumed degraded run must keep its incident history and quarantine set.
  Buf supervision;
  save(supervision, runner.supervisor().manifest());
  w.add_section(SectionTag::kSupervision, supervision.take());

  return w.finish();
}

Error save_campaign_file(const std::string& path, sim::FleetRunner& runner,
                         const CampaignProgress& progress) {
  if (failsafe::failpoint_fails("ckpt.save.write")) {
    return {Status::kIo, "injected failpoint: ckpt.save.write"};
  }
  return write_file_atomic(path, save_campaign(runner, progress));
}

Error restore_campaign(std::span<const std::uint8_t> bytes, int threads,
                       RestoredCampaign& out) {
  Reader reader;
  if (auto err = reader.load(bytes)) return err;

  const auto config_payload = reader.find(SectionTag::kConfig);
  if (!config_payload) return {Status::kMalformed, "missing config section"};
  Cursor config_cursor(*config_payload);
  sim::WorldConfig config;
  if (!load(config_cursor, config) || !config_cursor.at_end()) {
    return {Status::kMalformed, "config section: malformed payload"};
  }
  config.threads = threads < 1 ? 1 : threads;

  // Reconstruction: deterministic from the config alone. Everything below
  // overlays mutable state onto this fresh world; the runner only reaches
  // `out` after every section applied cleanly.
  auto runner = std::make_unique<sim::FleetRunner>(config);

  const auto shard_sections = reader.find_all(SectionTag::kShard);
  if (shard_sections.size() != runner->shards().size()) {
    return {Status::kBadConfig,
            "checkpoint has " + std::to_string(shard_sections.size()) +
                " shard sections, rebuilt world has " +
                std::to_string(runner->shards().size())};
  }
  for (std::size_t i = 0; i < shard_sections.size(); ++i) {
    Cursor c(shard_sections[i]);
    if (!load_shard_state(c, *runner->shards()[i])) {
      return section_error(c, "shard " + std::to_string(i));
    }
  }

  if (auto err = restore_vault(reader, *runner)) return err;

  if (const auto payload = reader.find(SectionTag::kFleetTelemetry)) {
    Cursor c(*payload);
    std::vector<telemetry::TraceSpan> spans;
    if (!load(c, runner->metrics()) || !load(c, spans) || !c.at_end()) {
      return section_error(c, "fleet telemetry");
    }
    runner->trace() = std::move(spans);
  } else {
    return {Status::kMalformed, "missing fleet telemetry section"};
  }

  // Supervision restores BEFORE the meta ledger cross-check: the fleet
  // ledger folds quarantined shards into lost_supervision, so the
  // quarantine set must be in place for the cross-check to balance.
  if (const auto payload = reader.find(SectionTag::kSupervision)) {
    Cursor c(*payload);
    failsafe::DegradedRunManifest manifest;
    if (!load(c, manifest) || !c.at_end()) {
      return section_error(c, "supervision manifest");
    }
    runner->restore_supervision(std::move(manifest));
  } else {
    return {Status::kMalformed, "missing supervision section"};
  }

  CampaignProgress progress;
  const auto meta_payload = reader.find(SectionTag::kMeta);
  if (!meta_payload) return {Status::kMalformed, "missing meta section"};
  {
    Cursor c(*meta_payload);
    fault::LossLedger saved_ledger;
    if (!load_meta(c, progress, saved_ledger) || !c.at_end()) {
      return {Status::kMalformed, "meta: malformed payload"};
    }
    // Final cross-check: the ledger is derived from tunnel + poller state
    // across every shard, so equality here means the overlay reproduced the
    // campaign's end-to-end accounting exactly.
    if (runner->loss_ledger() != saved_ledger) {
      return {Status::kBadConfig, "loss ledger cross-check failed after overlay"};
    }
  }
  runner->set_campaign_sim_hours(progress.sim_hours);

  out.runner = std::move(runner);
  out.progress = std::move(progress);
  return {};
}

Error restore_campaign_file(const std::string& path, int threads, RestoredCampaign& out) {
  std::vector<std::uint8_t> bytes;
  if (auto err = read_file(path, bytes)) return err;
  return restore_campaign(bytes, threads, out);
}

}  // namespace wlm::ckpt

// Full-scale campaign: the paper's entire fleet (Table 2: 20,667 networks)
// through the streaming tsdb harvest, in bounded memory.
//
// Four runs of the same seeded campaign, in this order:
//   1. primary   — jobs 1, the configured memory ceiling. Wall clock, the
//      process peak-RSS high-water mark (asserted <= the ceiling), and the
//      segment store's compression ratio (asserted >= 3x vs raw wire
//      bytes) are measured here, before any later run can move ru_maxrss.
//   2. spill     — jobs 1, a deliberately tiny ceiling so sealed segments
//      spill to disk mid-campaign.
//   3/4. jobs 2/8 — the primary configuration at other worker counts.
// Every run must produce the same output signature (CRC32 of the harvested
// report stream in canonical order, of the Prometheus metrics export, and
// of the campaign checkpoint bytes): that is the determinism contract —
// byte-identical output across --jobs and with/without spill — enforced,
// not just claimed. Identity failures, an RSS over the ceiling, or a
// compression ratio under 3x exit nonzero.
//
// The JSON record appends to $WLM_BENCH_JSON (default ./BENCH_fullscale.json).
// Knobs:
//   argv:                        [networks] [client_scale] [seed] [threads]
//   $WLM_FULLSCALE_CEILING_MB    primary ceiling, MiB (default 10240)
//   $WLM_FULLSCALE_SPILL_CEILING_MB  spill-forcing ceiling (default 512)
//   $WLM_FULLSCALE_SPILL_DIR     where spill files land (default
//                                ./bench_fullscale_spill)
#include <sys/resource.h>
#include <sys/stat.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <string>

#include "bench_common.hpp"
#include "ckpt/campaign.hpp"
#include "core/checksum.hpp"
#include "sim/fleet_runner.hpp"
#include "telemetry/export.hpp"
#include "telemetry/profile.hpp"
#include "wire/messages.hpp"

namespace {

using namespace wlm;

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr || *env == '\0') return fallback;
  return std::strtoull(env, nullptr, 10);
}

unsigned long long peak_rss_bytes_now() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  // Linux reports ru_maxrss in kilobytes.
  return static_cast<unsigned long long>(usage.ru_maxrss) * 1024ULL;
}

std::uint32_t crc_str(const std::string& s) {
  return crc32(std::span(reinterpret_cast<const std::uint8_t*>(s.data()), s.size()));
}

/// The output signature one campaign produces: everything the acceptance
/// contract requires to be byte-identical is reduced to a CRC each.
struct Signature {
  std::uint32_t reports_crc = 0;
  std::uint32_t prometheus_crc = 0;
  std::uint32_t checkpoint_crc = 0;
  bool operator==(const Signature&) const = default;
};

struct RunResult {
  Signature sig;
  double seconds = 0.0;
  tsdb::FleetStoreStats stats;
};

RunResult run_campaign(const analysis::ScenarioScale& scale, std::uint64_t ceiling_mb,
                       const std::string& spill_dir, int threads) {
  mkdir(spill_dir.c_str(), 0755);  // EEXIST is fine
  sim::WorldConfig config;
  config.fleet.epoch = deploy::Epoch::kJan2015;
  config.fleet.network_count = scale.networks;
  config.fleet.seed = scale.seed;
  config.seed = scale.seed + 1;
  config.client_scale = scale.client_scale;
  config.threads = threads;
  config.mem_ceiling_mb = ceiling_mb;
  config.spill_dir = spill_dir;

  RunResult r;
  const telemetry::Stopwatch watch;
  sim::FleetRunner runner(config);
  runner.run_usage_week();
  runner.run_mr16_interference(SimTime::epoch() + Duration::hours(14));
  runner.run_link_windows(SimTime::epoch() + Duration::hours(14));
  runner.harvest();
  r.seconds = watch.seconds();
  r.stats = runner.fleet_tsdb().stats();

  std::uint32_t reports_crc = 0;
  runner.reports().for_each([&](const wire::ApReport& report) {
    reports_crc = crc32_update(reports_crc, wire::encode_report(report));
  });
  r.sig.reports_crc = reports_crc;
  r.sig.prometheus_crc = crc_str(telemetry::to_prometheus(runner.metrics()));
  ckpt::CampaignProgress progress;
  progress.label = "bench_fullscale";
  progress.phases_done = {"usage_week", "mr16", "link_windows", "harvest"};
  r.sig.checkpoint_crc = crc32(ckpt::save_campaign(runner, progress));
  return r;
}

bool check_identity(const char* what, const Signature& want, const Signature& got) {
  if (want == got) {
    std::printf("  %-18s identical (reports %08x, prometheus %08x, checkpoint %08x)\n",
                what, got.reports_crc, got.prometheus_crc, got.checkpoint_crc);
    return true;
  }
  std::fprintf(stderr,
               "bench_fullscale: %s DIVERGED: reports %08x/%08x, prometheus "
               "%08x/%08x, checkpoint %08x/%08x\n",
               what, want.reports_crc, got.reports_crc, want.prometheus_crc,
               got.prometheus_crc, want.checkpoint_crc, got.checkpoint_crc);
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace wlm;
  setenv("WLM_BENCH_JSON", "BENCH_fullscale.json", /*overwrite=*/0);
  const analysis::ScenarioScale scale =
      bench::scale_from_args(argc, argv, analysis::paper_network_count());
  bench::print_header("Full-scale campaign in bounded memory", scale);

  const std::uint64_t ceiling_mb = env_u64("WLM_FULLSCALE_CEILING_MB", 10240);
  const std::uint64_t spill_ceiling_mb = env_u64("WLM_FULLSCALE_SPILL_CEILING_MB", 512);
  const char* spill_base = std::getenv("WLM_FULLSCALE_SPILL_DIR");
  const std::string spill_dir =
      (spill_base != nullptr && *spill_base != '\0') ? spill_base
                                                     : "bench_fullscale_spill";
  mkdir(spill_dir.c_str(), 0755);  // parent for the per-run subdirs

  const auto& tally = telemetry::work_tally();
  const std::uint64_t work_before = tally.fragments.load(std::memory_order_relaxed) +
                                    tally.frames.load(std::memory_order_relaxed);
  std::printf("primary run: %d networks, jobs 1, ceiling %llu MiB\n", scale.networks,
              static_cast<unsigned long long>(ceiling_mb));
  const RunResult primary = run_campaign(scale, ceiling_mb, spill_dir + "/primary",
                                         /*threads=*/1);
  const std::uint64_t work_primary = tally.fragments.load(std::memory_order_relaxed) +
                                     tally.frames.load(std::memory_order_relaxed) -
                                     work_before;
  // Snapshot the high-water mark NOW: ru_maxrss is process-lifetime
  // monotone, so this is the primary run's peak and later runs can't
  // retroactively inflate the bounded-memory claim.
  const unsigned long long primary_peak_rss = peak_rss_bytes_now();
  const bool rss_ok = primary_peak_rss <= ceiling_mb * 1024ULL * 1024ULL;
  const double ratio = primary.stats.compression_ratio();
  const bool ratio_ok = ratio >= 3.0;
  std::printf(
      "  %.1fs, peak RSS %.1f MiB (%s ceiling), %llu reports in %llu segments, "
      "%.2fx compression (%llu raw -> %llu segment bytes)\n",
      primary.seconds, static_cast<double>(primary_peak_rss) / (1024.0 * 1024.0),
      rss_ok ? "under" : "OVER", static_cast<unsigned long long>(primary.stats.reports),
      static_cast<unsigned long long>(primary.stats.segments_sealed), ratio,
      static_cast<unsigned long long>(primary.stats.raw_wire_bytes),
      static_cast<unsigned long long>(primary.stats.segment_bytes()));
  if (!rss_ok) {
    std::fprintf(stderr, "bench_fullscale: peak RSS exceeds the %llu MiB ceiling\n",
                 static_cast<unsigned long long>(ceiling_mb));
  }
  if (!ratio_ok) {
    std::fprintf(stderr, "bench_fullscale: compression ratio %.2fx is under 3x\n", ratio);
  }

  std::printf("spill run: ceiling %llu MiB, jobs 1\n",
              static_cast<unsigned long long>(spill_ceiling_mb));
  const RunResult spilled = run_campaign(scale, spill_ceiling_mb, spill_dir + "/spill",
                                         /*threads=*/1);
  if (spilled.stats.segments_spilled == 0) {
    std::fprintf(stderr,
                 "bench_fullscale: warning: spill run never spilled (resident stayed "
                 "under %llu MiB / 4) — the spill-identity check is vacuous\n",
                 static_cast<unsigned long long>(spill_ceiling_mb));
  } else {
    std::printf("  %.1fs, %llu segments spilled across %llu files\n", spilled.seconds,
                static_cast<unsigned long long>(spilled.stats.segments_spilled),
                static_cast<unsigned long long>(spilled.stats.spill_files));
  }

  std::printf("worker-count runs: ceiling %llu MiB, jobs 2 and 8\n",
              static_cast<unsigned long long>(ceiling_mb));
  const RunResult jobs2 = run_campaign(scale, ceiling_mb, spill_dir + "/jobs2",
                                       /*threads=*/2);
  const RunResult jobs8 = run_campaign(scale, ceiling_mb, spill_dir + "/jobs8",
                                       /*threads=*/8);

  std::printf("output identity vs the primary run:\n");
  const bool spill_same = check_identity("spill-vs-resident", primary.sig, spilled.sig);
  const bool jobs2_same = check_identity("jobs 2", primary.sig, jobs2.sig);
  const bool jobs8_same = check_identity("jobs 8", primary.sig, jobs8.sig);

  const char* path = std::getenv("WLM_BENCH_JSON");
  std::FILE* out = std::fopen(path, "a");
  if (out != nullptr) {
    std::fprintf(
        out,
        "{\"bench\": \"fullscale\", \"networks\": %d, \"seed\": %llu, "
        "\"mem_ceiling_mb\": %llu, \"seconds\": %.3f, "
        "\"primary_peak_rss_bytes\": %llu, \"rss_under_ceiling\": %s, "
        "\"reports\": %llu, \"segments_sealed\": %llu, \"raw_wire_bytes\": %llu, "
        "\"segment_bytes\": %llu, \"compression_ratio\": %.3f, "
        "\"spill_run\": {\"mem_ceiling_mb\": %llu, \"segments_spilled\": %llu, "
        "\"spill_files\": %llu, \"seconds\": %.3f}, "
        "\"identity\": {\"spill_vs_resident\": %s, \"jobs2\": %s, \"jobs8\": %s, "
        "\"reports_crc\": %u, \"prometheus_crc\": %u, \"checkpoint_crc\": %u}, %s}\n",
        scale.networks, static_cast<unsigned long long>(scale.seed),
        static_cast<unsigned long long>(ceiling_mb), primary.seconds, primary_peak_rss,
        rss_ok ? "true" : "false",
        static_cast<unsigned long long>(primary.stats.reports),
        static_cast<unsigned long long>(primary.stats.segments_sealed),
        static_cast<unsigned long long>(primary.stats.raw_wire_bytes),
        static_cast<unsigned long long>(primary.stats.segment_bytes()), ratio,
        static_cast<unsigned long long>(spill_ceiling_mb),
        static_cast<unsigned long long>(spilled.stats.segments_spilled),
        static_cast<unsigned long long>(spilled.stats.spill_files), spilled.seconds,
        spill_same ? "true" : "false", jobs2_same ? "true" : "false",
        jobs8_same ? "true" : "false", primary.sig.reports_crc,
        primary.sig.prometheus_crc, primary.sig.checkpoint_crc,
        bench::rate_rss_fields(work_primary, primary.seconds).c_str());
    std::fclose(out);
  }

  if (!rss_ok || !ratio_ok || !spill_same || !jobs2_same || !jobs8_same) return 1;
  std::printf("\nall identity, memory, and compression gates passed\n");
  return 0;
}

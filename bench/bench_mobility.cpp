// Mobility bench: what the waypoint walk + per-step handoff evaluation adds
// to a usage week, measured as an off/on pair at the same seed and scale so
// the delta is the mobility layer alone, not workload noise.
//
// Each cell appends a JSON line to $WLM_BENCH_JSON (default
// ./BENCH_mobility.json) with the unified fragments_frames_per_sec /
// peak_rss_bytes throughput fields plus the cell's roam counters.
#include <cstdio>
#include <cstdlib>

#include "bench_common.hpp"
#include "sim/fleet_runner.hpp"
#include "telemetry/profile.hpp"

namespace {

using namespace wlm;

std::uint64_t work_tally_total() {
  const auto& tally = telemetry::work_tally();
  return tally.fragments.load(std::memory_order_relaxed) +
         tally.frames.load(std::memory_order_relaxed);
}

struct CellResult {
  double seconds = 0.0;
  std::uint64_t work = 0;
  std::uint64_t walkers = 0;
  std::uint64_t active_steps = 0;
  std::uint64_t roams = 0;
  std::uint64_t band_switches = 0;
};

CellResult run_cell(const analysis::ScenarioScale& scale, bool mobility_on) {
  sim::WorldConfig config;
  config.fleet.epoch = deploy::Epoch::kJan2015;
  config.fleet.network_count = scale.networks;
  config.fleet.seed = scale.seed;
  config.seed = scale.seed + 1;
  config.client_scale = scale.client_scale;
  config.threads = scale.threads;
  config.mobility = scale.mobility;
  config.mobility.enabled = mobility_on;

  CellResult cell;
  const std::uint64_t tally_before = work_tally_total();
  const telemetry::Stopwatch watch;
  sim::FleetRunner runner(config);
  runner.run_usage_week(7);
  runner.harvest(sim::HarvestMode::kFinal);
  cell.seconds = watch.seconds();
  cell.work = work_tally_total() - tally_before;
  const auto& metrics = runner.metrics();
  cell.walkers = metrics.counter_value("wlm_mobility_clients_walking_total");
  cell.active_steps = metrics.counter_value("wlm_mobility_steps_active_total");
  cell.roams = metrics.counter_value("wlm_mobility_roams_total");
  cell.band_switches = metrics.counter_value("wlm_mobility_band_switches_total");
  return cell;
}

void append_json(const char* mode, const CellResult& cell) {
  const char* path = std::getenv("WLM_BENCH_JSON");
  if (path == nullptr) path = "BENCH_mobility.json";
  std::FILE* out = std::fopen(path, "a");
  if (out == nullptr) return;
  std::fprintf(out,
               "{\"bench\": \"mobility\", \"mode\": \"%s\", \"walkers\": %llu, "
               "\"active_steps\": %llu, \"roams\": %llu, \"band_switches\": %llu, "
               "\"seconds\": %.3f, %s}\n",
               mode, static_cast<unsigned long long>(cell.walkers),
               static_cast<unsigned long long>(cell.active_steps),
               static_cast<unsigned long long>(cell.roams),
               static_cast<unsigned long long>(cell.band_switches), cell.seconds,
               bench::rate_rss_fields(cell.work, cell.seconds).c_str());
  std::fclose(out);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace wlm;
  const analysis::ScenarioScale scale = bench::scale_from_args(argc, argv, 40);
  bench::print_header("Mobility: waypoint-walk + handoff overhead (off/on pair)", scale);

  const CellResult off = run_cell(scale, /*mobility_on=*/false);
  const CellResult on = run_cell(scale, /*mobility_on=*/true);
  append_json("off", off);
  append_json("on", on);

  std::printf("mobility off: %.2fs\n", off.seconds);
  std::printf("mobility on:  %.2fs  (%llu walkers, %llu active steps, %llu roams, "
              "%llu band switches)\n",
              on.seconds, static_cast<unsigned long long>(on.walkers),
              static_cast<unsigned long long>(on.active_steps),
              static_cast<unsigned long long>(on.roams),
              static_cast<unsigned long long>(on.band_switches));
  const double base = off.seconds > 0.0 ? off.seconds : 1.0;
  std::printf("walk overhead: %+.1f%% wall clock\n",
              100.0 * (on.seconds - base) / base);
  return 0;
}

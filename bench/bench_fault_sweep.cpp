// Fault sweep: how telemetry yield degrades as disruption intensity rises.
//
// Sweeps the two orthogonal loss processes — WAN outage rate (queue-and-
// catch-up territory, paper §2) and wire corruption probability — and
// records where each generated report ended up. Each cell runs the same
// seeded week campaign, so the sweep isolates the fault knobs: deltas
// between cells are injector effects, not workload noise.
//
// Besides the stdout tables, each cell appends a JSON line to
// $WLM_BENCH_JSON (default ./BENCH_fault_sweep.json) with the full ledger,
// so a plotting script can recover delivery/loss curves.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench_common.hpp"
#include "sim/fleet_runner.hpp"
#include "telemetry/profile.hpp"

namespace {

using namespace wlm;

struct CellResult {
  fault::LossLedger ledger;
  /// Fragments + frames this cell added to the global work tally, and its
  /// own wall clock — the shared-schema throughput inputs.
  std::uint64_t work = 0;
  double seconds = 0.0;
};

std::uint64_t work_tally_total() {
  const auto& tally = telemetry::work_tally();
  return tally.fragments.load(std::memory_order_relaxed) +
         tally.frames.load(std::memory_order_relaxed);
}

CellResult run_cell(const analysis::ScenarioScale& scale,
                    const fault::FaultSpec& faults) {
  sim::WorldConfig config;
  config.fleet.epoch = deploy::Epoch::kJan2015;
  config.fleet.network_count = scale.networks;
  config.fleet.seed = scale.seed;
  config.seed = scale.seed + 1;
  config.client_scale = scale.client_scale;
  config.threads = scale.threads;
  config.faults = faults;
  CellResult cell;
  const std::uint64_t tally_before = work_tally_total();
  const telemetry::Stopwatch watch;
  sim::FleetRunner runner(config);
  runner.run_usage_week(7);
  runner.run_mr16_interference(SimTime::epoch() + Duration::days(3));
  runner.harvest(sim::HarvestMode::kFinal);
  cell.ledger = runner.loss_ledger();
  cell.seconds = watch.seconds();
  cell.work = work_tally_total() - tally_before;
  return cell;
}

void append_json(const char* axis, double intensity, const CellResult& cell) {
  const fault::LossLedger& ledger = cell.ledger;
  const char* path = std::getenv("WLM_BENCH_JSON");
  if (path == nullptr) path = "BENCH_fault_sweep.json";
  std::FILE* out = std::fopen(path, "a");
  if (out == nullptr) return;
  std::fprintf(out,
               "{\"bench\": \"fault_sweep\", \"axis\": \"%s\", \"intensity\": %.4f, "
               "\"generated\": %llu, \"delivered\": %llu, \"shed\": %llu, "
               "\"lost_reboot\": %llu, \"lost_corruption\": %llu, "
               "\"in_flight\": %llu, \"conserved\": %s, %s}\n",
               axis, intensity, static_cast<unsigned long long>(ledger.generated),
               static_cast<unsigned long long>(ledger.delivered),
               static_cast<unsigned long long>(ledger.shed),
               static_cast<unsigned long long>(ledger.lost_reboot),
               static_cast<unsigned long long>(ledger.lost_corruption),
               static_cast<unsigned long long>(ledger.in_flight),
               ledger.conserved() ? "true" : "false",
               bench::rate_rss_fields(cell.work, cell.seconds).c_str());
  std::fclose(out);
}

void print_row(double intensity, const fault::LossLedger& ledger) {
  const double g = ledger.generated > 0 ? static_cast<double>(ledger.generated) : 1.0;
  std::printf("%9.3f %10llu %10.1f%% %7.1f%% %8.1f%% %9.1f%%   %s\n", intensity,
              static_cast<unsigned long long>(ledger.generated),
              100.0 * ledger.delivery_ratio(),
              100.0 * static_cast<double>(ledger.shed) / g,
              100.0 * static_cast<double>(ledger.lost_reboot) / g,
              100.0 * static_cast<double>(ledger.lost_corruption) / g,
              ledger.conserved() ? "ok" : "NOT CONSERVED");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace wlm;
  const analysis::ScenarioScale scale = bench::scale_from_args(argc, argv, 40);
  bench::print_header("Fault sweep: loss accounting vs disruption intensity", scale);

  std::printf("-- WAN outage sweep (mean 12h outages, bounded 64-frame queues) --\n");
  std::printf("rate/week  generated   delivered    shed   reboot   corrupt   invariant\n");
  for (const double rate : {0.0, 1.0, 2.0, 4.0, 8.0, 16.0}) {
    fault::FaultSpec faults;
    faults.outage_rate_per_week = rate;
    faults.outage_mean_hours = 12.0;
    faults.reboot_rate_per_week = rate / 2.0;
    faults.tunnel_queue_limit = 64;
    const auto cell = run_cell(scale, faults);
    print_row(rate, cell.ledger);
    append_json("outage_rate", rate, cell);
  }

  std::printf("\n-- Corruption sweep (bit flips caught by the framing CRC) --\n");
  std::printf("p(flip)    generated   delivered    shed   reboot   corrupt   invariant\n");
  for (const double p : {0.0, 0.01, 0.02, 0.05, 0.10, 0.20}) {
    fault::FaultSpec faults;
    faults.corrupt_probability = p;
    const auto cell = run_cell(scale, faults);
    print_row(p, cell.ledger);
    append_json("corrupt_probability", p, cell);
  }

  std::printf(
      "\nEvery row satisfies generated == delivered + shed + lost + in-flight;\n"
      "the corruption column tracks p(flip) because CRC32 catches every\n"
      "single-bit flip (no silent acceptance at any intensity).\n");
  return 0;
}

// Mesh backhaul studies: packet-delivery ratio and relay delay as a
// function of hop count, the way the ngwmn 7x7-grid measurements slice
// them — generation attested by the shard registries, delivery and delay
// measured FROM THE BACKEND STORE ONLY, and the difference accounted by
// the loss ledger (lost_mesh_partition closes the conservation identity).
#include <algorithm>
#include <cstdio>
#include <sstream>
#include <vector>

#include "analysis/experiments.hpp"
#include "analysis/world_config.hpp"
#include "core/table.hpp"
#include "sim/fleet_runner.hpp"

namespace wlm::analysis {

namespace {

sim::WorldConfig mesh_world_config(const ScenarioScale& scale) {
  sim::WorldConfig cfg =
      make_world_config(scale, deploy::Epoch::kJan2015, deploy::ApModel::kMr16);
  cfg.mesh = scale.mesh.clamped();
  if (!cfg.mesh.enabled()) cfg.mesh.mesh_fraction = 0.40;  // it is the mesh study
  return cfg;
}

[[nodiscard]] std::string us_to_ms(double us) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.3f", us / 1000.0);
  return std::string(buf);
}

}  // namespace

MeshRun run_mesh_study(const ScenarioScale& scale) {
  const sim::WorldConfig cfg = mesh_world_config(scale);
  sim::FleetRunner world(cfg);
  world.run_usage_week(/*reports_per_week=*/7);
  world.harvest();

  MeshRun run;
  const auto buckets = static_cast<std::size_t>(cfg.mesh.max_hops) + 1;
  run.generated_by_hops.assign(buckets, 0);
  run.delivered_by_hops.assign(buckets, 0);
  run.relay_us_by_hops.assign(buckets, {});

  // Backend view: what actually arrived, and how long the hops took.
  world.reports().for_each([&](const wire::ApReport& report) {
    const auto hops = std::min<std::size_t>(report.mesh_hops, buckets - 1);
    ++run.delivered_by_hops[hops];
    if (report.mesh_hops != 0) {
      run.relay_us_by_hops[hops].push_back(static_cast<double>(report.mesh_relay_us));
    }
  });
  run.total_aps = world.reports().ap_count();

  // Shard attestation: what was enqueued per hop distance, and the fleet
  // relay/partition totals.
  const telemetry::MetricsRegistry& metrics = world.metrics();
  for (std::size_t hops = 0; hops < buckets; ++hops) {
    run.generated_by_hops[hops] =
        metrics.counter_value("wlm_mesh_reports_by_hops_total", hops);
  }
  run.relayed_reports = metrics.counter_value("wlm_mesh_relayed_reports_total");
  run.hops_total = metrics.counter_value("wlm_mesh_hops_total");
  run.relay_us_total = metrics.counter_value("wlm_mesh_relay_us_total");
  run.partition_lost = metrics.counter_value("wlm_mesh_partition_lost_total");
  metrics.for_each_gauge([&](const telemetry::MetricKey& key, const telemetry::Gauge& g) {
    if (key.name == "wlm_mesh_aps") run.mesh_aps += static_cast<std::uint64_t>(g.value());
  });
  run.ledger = world.loss_ledger();
  return run;
}

std::string render_mesh_delivery(const MeshRun& run) {
  TextTable table({"hops", "generated", "delivered", "delivery ratio"},
                  {Align::kRight, Align::kRight, Align::kRight, Align::kRight});
  std::uint64_t generated_total = 0;
  std::uint64_t delivered_total = 0;
  for (std::size_t hops = 0; hops < run.generated_by_hops.size(); ++hops) {
    const std::uint64_t generated = run.generated_by_hops[hops];
    const std::uint64_t delivered =
        hops < run.delivered_by_hops.size() ? run.delivered_by_hops[hops] : 0;
    if (generated == 0 && delivered == 0) continue;
    generated_total += generated;
    delivered_total += delivered;
    table.add_row({std::to_string(hops),
                   with_commas(static_cast<long long>(generated)),
                   with_commas(static_cast<long long>(delivered)),
                   pct(static_cast<double>(delivered) /
                       std::max<double>(static_cast<double>(generated), 1.0))});
  }
  table.add_row({"all", with_commas(static_cast<long long>(generated_total)),
                 with_commas(static_cast<long long>(delivered_total)),
                 pct(static_cast<double>(delivered_total) /
                     std::max<double>(static_cast<double>(generated_total), 1.0))});

  std::ostringstream out;
  out << "Mesh delivery ratio vs hop count (one usage week)\n"
      << "(generated = shard enqueue attestation; delivered = backend store)\n"
      << table.render();
  out << "mesh APs: " << with_commas(static_cast<long long>(run.mesh_aps)) << " of "
      << with_commas(static_cast<long long>(run.total_aps)) << "\n";
  out << "relayed reports: " << with_commas(static_cast<long long>(run.relayed_reports))
      << "\n";
  out << "partition-stranded reports: "
      << with_commas(static_cast<long long>(run.partition_lost)) << "\n";
  out << "ledger: " << run.ledger.render() << "\n";
  return out.str();
}

std::string render_mesh_delay(const MeshRun& run) {
  TextTable table({"hops", "reports", "mean ms", "percentiles (ms)"},
                  {Align::kRight, Align::kRight, Align::kRight, Align::kLeft});
  for (std::size_t hops = 1; hops < run.relay_us_by_hops.size(); ++hops) {
    const std::vector<double>& samples = run.relay_us_by_hops[hops];
    if (samples.empty()) continue;
    double sum = 0.0;
    for (const double v : samples) sum += v;
    std::vector<double> ms;
    ms.reserve(samples.size());
    for (const double v : samples) ms.push_back(v / 1000.0);
    table.add_row({std::to_string(hops),
                   with_commas(static_cast<long long>(samples.size())),
                   us_to_ms(sum / static_cast<double>(samples.size())),
                   percentile_summary(ms, /*as_percent=*/false)});
  }
  std::ostringstream out;
  out << "Mesh relay delay vs hop count (queueing + airtime added per report)\n"
      << "(measured from delivered reports' mesh_relay_us, backend view)\n"
      << table.render();
  const double mean_hop_us =
      run.hops_total != 0
          ? static_cast<double>(run.relay_us_total) / static_cast<double>(run.hops_total)
          : 0.0;
  out << "fleet mean per-hop cost: " << us_to_ms(mean_hop_us) << " ms over "
      << with_commas(static_cast<long long>(run.hops_total)) << " hops\n";
  return out.str();
}

}  // namespace wlm::analysis

// Mobility/roaming studies: roam-rate CDF, AP-visit distribution, and
// sticky-client detection, all measured the way the paper's backend would —
// by aggregating harvested usage reports by MAC (§2.3), never by peeking at
// simulator state.
#include <algorithm>
#include <sstream>
#include <vector>

#include "analysis/experiments.hpp"
#include "analysis/world_config.hpp"
#include "classify/os.hpp"
#include "core/chart.hpp"
#include "core/table.hpp"
#include "sim/fleet_runner.hpp"

namespace wlm::analysis {

namespace {

sim::WorldConfig mobility_world_config(const ScenarioScale& scale) {
  sim::WorldConfig cfg =
      make_world_config(scale, deploy::Epoch::kJan2015, deploy::ApModel::kMr16);
  cfg.mobility = scale.mobility;
  cfg.mobility.enabled = true;  // it is the mobility study
  return cfg;
}

/// Per-roam-count client tallies, index = AP changes (ap_count - 1).
std::vector<std::size_t> roam_histogram(const MobilityRun& run) {
  std::vector<std::size_t> hist;
  for (const int ap_count : run.ap_counts) {
    const auto roams = static_cast<std::size_t>(std::max(ap_count - 1, 0));
    if (roams >= hist.size()) hist.resize(roams + 1, 0);
    ++hist[roams];
  }
  return hist;
}

}  // namespace

MobilityRun run_mobility_study(const ScenarioScale& scale) {
  sim::FleetRunner world(mobility_world_config(scale));
  world.run_usage_week(/*reports_per_week=*/7);
  world.harvest();

  backend::UsageAggregator agg;
  agg.consume(world.reports(), SimTime::epoch(), SimTime::epoch() + Duration::days(8));

  MobilityRun run;
  // Sort by MAC so the per-client vectors never depend on hash-map order.
  std::vector<const backend::ClientAggregate*> clients;
  clients.reserve(agg.clients().size());
  for (const auto& [mac, client] : agg.clients()) clients.push_back(&client);
  std::sort(clients.begin(), clients.end(),
            [](const backend::ClientAggregate* a, const backend::ClientAggregate* b) {
              return a->mac.to_u64() < b->mac.to_u64();
            });
  run.clients = clients.size();
  run.ap_counts.reserve(clients.size());
  for (const backend::ClientAggregate* client : clients) {
    run.ap_counts.push_back(client->ap_count);
    if (classify::device_class(client->os) == classify::DeviceClass::kMobile) {
      ++run.mobile_clients;
      if (client->ap_count <= 1) ++run.sticky_mobile;
    }
  }

  const telemetry::MetricsRegistry& metrics = world.metrics();
  run.clients_walking = metrics.counter_value("wlm_mobility_clients_walking_total");
  run.steps_active = metrics.counter_value("wlm_mobility_steps_active_total");
  run.roams = metrics.counter_value("wlm_mobility_roams_total");
  run.handoffs_armed = metrics.counter_value("wlm_mobility_handoffs_armed_total");
  run.handoffs_aborted = metrics.counter_value("wlm_mobility_handoffs_aborted_total");
  run.band_switches = metrics.counter_value("wlm_mobility_band_switches_total");
  return run;
}

std::string render_roam_cdf(const MobilityRun& run) {
  const auto hist = roam_histogram(run);
  const double total = std::max<double>(static_cast<double>(run.clients), 1.0);

  TextTable table({"AP changes", "clients", "share", "cumulative"},
                  {Align::kRight, Align::kRight, Align::kRight, Align::kRight});
  std::size_t cum = 0;
  for (std::size_t roams = 0; roams < hist.size(); ++roams) {
    cum += hist[roams];
    table.add_row({std::to_string(roams),
                   with_commas(static_cast<long long>(hist[roams])),
                   pct(static_cast<double>(hist[roams]) / total),
                   pct(static_cast<double>(cum) / total)});
  }
  std::ostringstream out;
  out << "Roam-rate CDF: AP changes per client over one week\n"
      << "(backend view: distinct APs carrying the MAC, minus one)\n"
      << table.render();
  out << "clients: " << with_commas(static_cast<long long>(run.clients)) << "\n";
  return out.str();
}

std::string render_ap_visits(const MobilityRun& run) {
  // Tally distinct-AP counts; the tail above 5 collapses into one bucket.
  constexpr int kTail = 6;
  std::vector<std::size_t> buckets(kTail + 1, 0);
  for (const int ap_count : run.ap_counts) {
    const int clamped = std::clamp(ap_count, 1, kTail + 1);
    ++buckets[static_cast<std::size_t>(clamped - 1)];
  }
  std::vector<std::pair<std::string, double>> bars;
  for (int i = 0; i < kTail; ++i) {
    bars.emplace_back(std::to_string(i + 1) + " AP" + (i == 0 ? " " : "s"),
                      static_cast<double>(buckets[static_cast<std::size_t>(i)]));
  }
  bars.emplace_back(">" + std::to_string(kTail) + " APs",
                    static_cast<double>(buckets[kTail]));
  std::ostringstream out;
  out << render_bars(bars, "Distinct APs visited per client (one week)");
  return out.str();
}

std::string render_sticky_clients(const MobilityRun& run) {
  const double mobile = std::max<double>(static_cast<double>(run.mobile_clients), 1.0);
  TextTable table({"Metric", "value"}, {Align::kLeft, Align::kRight});
  table.add_row({"clients (all)", with_commas(static_cast<long long>(run.clients))});
  table.add_row({"mobile-class clients",
                 with_commas(static_cast<long long>(run.mobile_clients))});
  table.add_row({"sticky mobile (1 AP all week)",
                 with_commas(static_cast<long long>(run.sticky_mobile))});
  table.add_row({"sticky share of mobile",
                 pct(static_cast<double>(run.sticky_mobile) / mobile)});
  table.add_row({"walking clients (sim)",
                 with_commas(static_cast<long long>(run.clients_walking))});
  table.add_row({"active walk steps", with_commas(static_cast<long long>(run.steps_active))});
  table.add_row({"committed roams", with_commas(static_cast<long long>(run.roams))});
  table.add_row({"handoffs armed", with_commas(static_cast<long long>(run.handoffs_armed))});
  table.add_row({"handoffs aborted",
                 with_commas(static_cast<long long>(run.handoffs_aborted))});
  table.add_row({"band switches", with_commas(static_cast<long long>(run.band_switches))});
  std::ostringstream out;
  out << "Sticky-client report (mobile-class devices that never roamed)\n" << table.render();
  return out.str();
}

}  // namespace wlm::analysis

#include <algorithm>
#include <cmath>
#include <sstream>

#include "analysis/experiments.hpp"
#include "analysis/world_config.hpp"
#include "classify/apps.hpp"
#include "core/chart.hpp"
#include "core/table.hpp"
#include "core/units.hpp"
#include "deploy/capabilities.hpp"
#include "deploy/industry.hpp"
#include "deploy/population.hpp"
#include "phy/propagation.hpp"
#include "sim/fleet_runner.hpp"

namespace wlm::analysis {

sim::WorldConfig make_world_config(const ScenarioScale& scale, deploy::Epoch epoch,
                                   deploy::ApModel model) {
  sim::WorldConfig cfg;
  cfg.fleet.epoch = epoch;
  cfg.fleet.network_count = scale.networks;
  cfg.fleet.model = model;
  cfg.fleet.seed = scale.seed ^ (static_cast<std::uint64_t>(epoch) << 32);
  cfg.client_scale = scale.client_scale;
  cfg.seed = scale.seed * 1315423911ULL + static_cast<std::uint64_t>(epoch);
  cfg.threads = scale.threads;
  cfg.mem_ceiling_mb = scale.mem_ceiling_mb;
  cfg.spill_dir = scale.spill_dir;
  return cfg;
}

int paper_network_count() { return deploy::total_network_count(); }

std::string percentile_summary(const std::vector<double>& values, bool as_percent) {
  EmpiricalCdf cdf{std::vector<double>(values)};
  const double k = as_percent ? 100.0 : 1.0;
  std::ostringstream out;
  out << "p10=" << fixed(cdf.quantile(0.1) * k, 1) << " p50=" << fixed(cdf.quantile(0.5) * k, 1)
      << " p90=" << fixed(cdf.quantile(0.9) * k, 1);
  if (as_percent) out << " (%)";
  return out.str();
}

// ------------------------------------------------------------- Table 2

std::string render_table2(const ScenarioScale& scale) {
  // Sample the generator's industry mix and compare against Table 2.
  Rng rng(scale.seed);
  std::vector<int> counts(static_cast<std::size_t>(deploy::kIndustryCount), 0);
  const int samples = std::max(20'000, scale.networks);
  for (int i = 0; i < samples; ++i) {
    ++counts[static_cast<std::size_t>(deploy::sample_industry(rng))];
  }
  const auto paper = deploy::industry_network_counts();
  const double paper_total = static_cast<double>(deploy::total_network_count());

  TextTable table({"Industry", "paper #", "paper %", "generated %"},
                  {Align::kLeft, Align::kRight, Align::kRight, Align::kRight});
  for (int i = 0; i < deploy::kIndustryCount; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    table.add_row({std::string(deploy::industry_name(static_cast<deploy::Industry>(i))),
                   with_commas(paper[idx]), pct(paper[idx] / paper_total),
                   pct(static_cast<double>(counts[idx]) / samples)});
  }
  std::ostringstream out;
  out << "Table 2: network deployment types (generator mix vs paper)\n" << table.render();
  out << "paper total networks: " << with_commas(deploy::total_network_count()) << "\n";
  return out.str();
}

// ------------------------------------------------------ Tables 3/5/6

UsageRun run_usage_study(const ScenarioScale& scale) {
  UsageRun run;
  for (const deploy::Epoch epoch : {deploy::Epoch::kJan2015, deploy::Epoch::kJan2014}) {
    sim::FleetRunner world(make_world_config(scale, epoch, deploy::ApModel::kMr16));
    world.run_usage_week(/*reports_per_week=*/7);
    world.harvest();

    auto& agg = epoch == deploy::Epoch::kJan2015 ? run.agg_2015 : run.agg_2014;
    agg.consume(world.reports(), SimTime::epoch(), SimTime::epoch() + Duration::days(8));

    const double sim_clients = std::max<std::size_t>(agg.client_count(), 1);
    const double paper_clients = deploy::total_clients(epoch);
    if (epoch == deploy::Epoch::kJan2015) {
      run.upscale_2015 = paper_clients / sim_clients;
      run.flows_classified = world.flows_classified();
      run.flows_misclassified = world.flows_misclassified();
      run.mean_report_bytes_per_ap = world.mean_report_bytes_per_ap();
      run.report_kbit_per_s = run.mean_report_bytes_per_ap * 8.0 / (7.0 * 24 * 3600) / 1000.0;
    } else {
      run.upscale_2014 = paper_clients / sim_clients;
    }
  }
  return run;
}

namespace {

struct OsMeasured {
  double tb = 0.0;
  double down_frac = 0.0;
  std::uint64_t clients = 0;
  double mb_per_client = 0.0;
};

std::vector<OsMeasured> measure_by_os(const backend::UsageAggregator& agg, double upscale) {
  std::vector<OsMeasured> out(static_cast<std::size_t>(classify::kOsTypeCount));
  const auto rollups = agg.by_os();
  for (int i = 0; i < classify::kOsTypeCount; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    const auto& r = rollups[idx];
    auto& m = out[idx];
    const double total = static_cast<double>(r.up + r.down) * upscale;
    m.tb = total / 1e12;
    m.down_frac = (r.up + r.down) > 0
                      ? static_cast<double>(r.down) / static_cast<double>(r.up + r.down)
                      : 0.0;
    m.clients = static_cast<std::uint64_t>(static_cast<double>(r.clients) * upscale);
    m.mb_per_client =
        r.clients > 0 ? total / (static_cast<double>(r.clients) * upscale) / 1e6 : 0.0;
  }
  return out;
}

}  // namespace

std::string render_table3(const UsageRun& run) {
  const auto now = measure_by_os(run.agg_2015, run.upscale_2015);
  const auto before = measure_by_os(run.agg_2014, run.upscale_2014);

  // Order rows by 2015 usage, as the paper does.
  std::vector<int> order;
  for (int i = 0; i < classify::kOsTypeCount; ++i) order.push_back(i);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return now[static_cast<std::size_t>(a)].tb > now[static_cast<std::size_t>(b)].tb;
  });

  TextTable table({"OS", "TB (%tot/%down)", "% inc", "# clients", "% inc", "MB/client", "% inc"},
                  {Align::kLeft, Align::kRight, Align::kRight, Align::kRight, Align::kRight,
                   Align::kRight, Align::kRight});
  double total_tb = 0.0;
  double total_tb_before = 0.0;
  std::uint64_t total_clients = 0;
  for (const auto& m : now) total_tb += m.tb;
  for (const auto& m : before) total_tb_before += m.tb;
  for (const auto& m : now) total_clients += m.clients;

  for (int i : order) {
    const auto idx = static_cast<std::size_t>(i);
    const auto& m = now[idx];
    const auto& b = before[idx];
    if (m.clients == 0) continue;
    std::ostringstream tb_cell;
    tb_cell << fixed(m.tb, m.tb >= 10 ? 0 : 1) << " (" << pct(m.tb / std::max(total_tb, 1e-9))
            << "/" << pct(m.down_frac) << ")";
    table.add_row({std::string(classify::os_name(static_cast<classify::OsType>(i))),
                   tb_cell.str(), percent_increase(b.tb, m.tb),
                   with_commas(static_cast<long long>(m.clients)),
                   percent_increase(static_cast<double>(b.clients), static_cast<double>(m.clients)),
                   fixed(m.mb_per_client, 0), percent_increase(b.mb_per_client, m.mb_per_client)});
  }
  std::ostringstream out;
  out << "Table 3: usage by operating system (measured, scaled to paper client counts)\n"
      << table.render();
  out << "All: " << fixed(total_tb, 0) << " TB across "
      << with_commas(static_cast<long long>(total_clients))
      << " clients; total growth " << percent_increase(total_tb_before, total_tb)
      << " (paper: 1,950 TB, 5,578,126 clients, +62% usage, +37% clients)\n";
  return out.str();
}

namespace {

struct AppMeasured {
  classify::AppId app = classify::AppId::kUnclassified;
  double tb = 0.0;
  double down_frac = 0.0;
  std::uint64_t clients = 0;
};

std::vector<AppMeasured> measure_by_app(const backend::UsageAggregator& agg, double upscale) {
  std::vector<AppMeasured> out;
  for (const auto& [app, r] : agg.by_app()) {
    AppMeasured m;
    m.app = app;
    const double total = static_cast<double>(r.up + r.down) * upscale;
    m.tb = total / 1e12;
    m.down_frac = (r.up + r.down) > 0
                      ? static_cast<double>(r.down) / static_cast<double>(r.up + r.down)
                      : 0.0;
    m.clients = static_cast<std::uint64_t>(static_cast<double>(r.clients) * upscale);
    out.push_back(m);
  }
  std::sort(out.begin(), out.end(),
            [](const AppMeasured& a, const AppMeasured& b) { return a.tb > b.tb; });
  return out;
}

}  // namespace

std::string render_table5(const UsageRun& run, std::size_t top_n) {
  const auto now = measure_by_app(run.agg_2015, run.upscale_2015);
  const auto before = measure_by_app(run.agg_2014, run.upscale_2014);
  double total_tb = 0.0;
  for (const auto& m : now) total_tb += m.tb;

  auto find_before = [&](classify::AppId app) -> const AppMeasured* {
    for (const auto& m : before) {
      if (m.app == app) return &m;
    }
    return nullptr;
  };

  TextTable table({"Application", "Category", "TB (%tot/%down)", "% inc", "# clients",
                   "MB/client", "paper TB"},
                  {Align::kLeft, Align::kLeft, Align::kRight, Align::kRight, Align::kRight,
                   Align::kRight, Align::kRight});
  std::size_t rows = 0;
  for (const auto& m : now) {
    if (rows++ >= top_n) break;
    const auto& info = classify::app_info(m.app);
    const auto* b = find_before(m.app);
    std::ostringstream tb_cell;
    tb_cell << fixed(m.tb, m.tb >= 10 ? 0 : 1) << " (" << pct(m.tb / std::max(total_tb, 1e-9))
            << "/" << pct(m.down_frac) << ")";
    const double mb = m.clients > 0 ? m.tb * 1e6 / static_cast<double>(m.clients) : 0.0;
    table.add_row({std::string(info.name), std::string(classify::category_name(info.category)),
                   tb_cell.str(), b != nullptr ? percent_increase(b->tb, m.tb) : "n/a",
                   with_commas(static_cast<long long>(m.clients)), fixed(mb, mb < 10 ? 1 : 0),
                   fixed(info.y2015.terabytes, 1)});
  }
  std::ostringstream out;
  out << "Table 5: top applications by usage (measured vs paper targets)\n" << table.render();
  out << "total: " << fixed(total_tb, 0) << " TB (paper: 1,950 TB)\n";
  return out.str();
}

std::string render_table6(const UsageRun& run) {
  const auto now = run.agg_2015.by_category();
  const auto before = run.agg_2014.by_category();
  double total_tb = 0.0;
  for (const auto& r : now) total_tb += static_cast<double>(r.up + r.down) * run.upscale_2015 / 1e12;

  std::vector<int> order;
  for (int c = 0; c < classify::kCategoryCount; ++c) order.push_back(c);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    const auto& ra = now[static_cast<std::size_t>(a)];
    const auto& rb = now[static_cast<std::size_t>(b)];
    return ra.up + ra.down > rb.up + rb.down;
  });

  TextTable table({"Category", "TB (%tot/%down)", "% inc", "# clients", "MB/client"},
                  {Align::kLeft, Align::kRight, Align::kRight, Align::kRight, Align::kRight});
  for (int c : order) {
    const auto idx = static_cast<std::size_t>(c);
    const auto& r = now[idx];
    const auto& b = before[idx];
    if (r.clients == 0) continue;
    const double tb = static_cast<double>(r.up + r.down) * run.upscale_2015 / 1e12;
    const double tb_before = static_cast<double>(b.up + b.down) * run.upscale_2014 / 1e12;
    const double down =
        (r.up + r.down) > 0 ? static_cast<double>(r.down) / static_cast<double>(r.up + r.down)
                            : 0.0;
    const double clients = static_cast<double>(r.clients) * run.upscale_2015;
    std::ostringstream tb_cell;
    tb_cell << fixed(tb, tb >= 10 ? 0 : 2) << " (" << pct(tb / std::max(total_tb, 1e-9)) << "/"
            << pct(down) << ")";
    table.add_row({std::string(classify::category_name(static_cast<classify::Category>(c))),
                   tb_cell.str(), percent_increase(tb_before, tb),
                   with_commas(static_cast<long long>(clients)),
                   fixed(tb * 1e6 / std::max(clients, 1.0), 0)});
  }
  std::ostringstream out;
  out << "Table 6: usage by application category (paper: video 34% @97% down; file sharing "
         "8.4%; online backup 4.2% down; overall ~4.6x more down than up)\n"
      << table.render();
  return out.str();
}

std::string render_wire_overhead(const UsageRun& run) {
  std::ostringstream out;
  out << "Telemetry overhead (paper SS2: 'a typical access point averages around 1 kilobit "
         "per second')\n";
  out << "  usage-only report bytes per AP per week: "
      << Bytes{static_cast<std::int64_t>(run.mean_report_bytes_per_ap)}.human() << "\n";
  out << "  flows classified: " << with_commas(static_cast<long long>(run.flows_classified))
      << ", misclassified vs generator truth: "
      << pct(static_cast<double>(run.flows_misclassified) /
             std::max<double>(1.0, static_cast<double>(run.flows_classified)))
      << "\n";
  return out.str();
}

WireOverheadRun run_wire_overhead_study(const ScenarioScale& scale) {
  // A realistic reporting week: 7 usage reports plus interference/neighbor
  // telemetry every 20 minutes (504 reports), which dominates the byte
  // budget exactly as in the production system.
  sim::FleetRunner world(make_world_config(scale, deploy::Epoch::kJan2015, deploy::ApModel::kMr16));
  world.run_usage_week(7);
  // One simulated day of periodic radio reports, scaled to the week.
  constexpr int kReportsPerDay = 72;  // every 20 minutes
  for (int i = 0; i < kReportsPerDay; ++i) {
    world.run_mr16_interference(SimTime::epoch() + Duration::minutes(20 * i));
  }
  world.run_link_windows(SimTime::epoch() + Duration::hours(12));
  world.harvest();

  WireOverheadRun run;
  double usage_and_day = world.mean_report_bytes_per_ap();
  // Separate the one-day radio portion to scale it to 7 days: usage reports
  // are a small constant, so approximate by scaling everything but keeping
  // the measured mix (radio reports dominate at this cadence).
  run.bytes_per_ap_week = usage_and_day / (kReportsPerDay + 8) * (7 * kReportsPerDay + 8);
  run.kbit_per_s = run.bytes_per_ap_week * 8.0 / (7.0 * 24 * 3600) / 1000.0;
  run.reports_per_ap = 7.0 * kReportsPerDay + 8.0;
  return run;
}

std::string render_wire_overhead_full(const WireOverheadRun& run) {
  std::ostringstream out;
  out << "Full-cadence telemetry overhead (paper SS2: 'around 1 kilobit per second')\n";
  out << "  reports per AP per week: " << fixed(run.reports_per_ap, 0)
      << " (usage daily + radio stats every 20 min + link windows)\n";
  out << "  framed bytes per AP per week: "
      << Bytes{static_cast<std::int64_t>(run.bytes_per_ap_week)}.human() << "\n";
  out << "  sustained rate: " << fixed(run.kbit_per_s, 3)
      << " kbit/s (paper budget: ~1 kbit/s)\n";
  return out.str();
}

// ------------------------------------------------- Table 4 / Figure 1

SnapshotRun run_snapshot_study(const ScenarioScale& scale) {
  SnapshotRun run;
  run.caps_2014.resize(8, 0.0);
  run.caps_2015.resize(8, 0.0);
  for (const deploy::Epoch epoch : {deploy::Epoch::kJan2014, deploy::Epoch::kJan2015}) {
    sim::FleetRunner world(make_world_config(scale, epoch, deploy::ApModel::kMr16));
    world.snapshot_clients(SimTime::epoch() + Duration::hours(20));  // "one evening"
    world.harvest();

    std::vector<double>& caps =
        epoch == deploy::Epoch::kJan2015 ? run.caps_2015 : run.caps_2014;
    std::size_t count = 0;
    const double noise = phy::noise_floor(20.0).dbm();
    world.reports().for_each([&](const wire::ApReport& report) {
      for (const auto& snap : report.clients) {
        ++count;
        const std::uint32_t bits = snap.capability_bits;
        const deploy::CapabilityBit flags[] = {
            deploy::kCap11g,  deploy::kCap11n,        deploy::kCap5GHz,
            deploy::kCap40MHz, deploy::kCap11ac,       deploy::kCapTwoStreams,
            deploy::kCapThreeStreams, deploy::kCapFourStreams};
        for (std::size_t i = 0; i < 8; ++i) {
          if ((bits & flags[i]) != 0) caps[i] += 1.0;
        }
        if (epoch == deploy::Epoch::kJan2015) {
          const double snr = snap.rssi_dbm - noise;
          if (snap.band == 1) {
            run.snr_5.push_back(snr);
          } else {
            run.snr_24.push_back(snr);
          }
        }
      }
    });
    for (auto& c : caps) c /= std::max<double>(1.0, static_cast<double>(count));
  }
  run.clients_24 = run.snr_24.size();
  run.clients_5 = run.snr_5.size();
  return run;
}

std::string render_table4(const SnapshotRun& run) {
  static const char* kRowNames[] = {"802.11g", "802.11n", "5 GHz", "40 MHz channels",
                                    "802.11ac", "Two streams", "Three streams", "Four streams"};
  const deploy::CapabilityTargets t14 = deploy::capability_targets(deploy::Epoch::kJan2014);
  const deploy::CapabilityTargets t15 = deploy::capability_targets(deploy::Epoch::kJan2015);
  const double paper14[] = {t14.p_11g, t14.p_11n, t14.p_5ghz, t14.p_40mhz,
                            t14.p_11ac, t14.p_two_streams, t14.p_three_streams,
                            t14.p_four_streams};
  const double paper15[] = {t15.p_11g, t15.p_11n, t15.p_5ghz, t15.p_40mhz,
                            t15.p_11ac, t15.p_two_streams, t15.p_three_streams,
                            t15.p_four_streams};
  TextTable table({"Capability", "paper 2014", "meas 2014", "paper 2015", "meas 2015"},
                  {Align::kLeft, Align::kRight, Align::kRight, Align::kRight, Align::kRight});
  for (std::size_t i = 0; i < 8; ++i) {
    table.add_row({kRowNames[i], pct(paper14[i]), pct(run.caps_2014[i]), pct(paper15[i]),
                   pct(run.caps_2015[i])});
  }
  return "Table 4: client capabilities advertised at association\n" + table.render();
}

std::string render_fig1(const SnapshotRun& run) {
  EmpiricalCdf cdf24{std::vector<double>(run.snr_24)};
  EmpiricalCdf cdf5{std::vector<double>(run.snr_5)};
  std::vector<Series> series;
  series.push_back(Series{"2.4 GHz", cdf24.curve(72)});
  series.push_back(Series{"5 GHz", cdf5.curve(72)});
  ChartOptions opt;
  opt.title = "Figure 1: client signal strength (dB above noise floor), CDF";
  opt.x_label = "SNR (dB)";
  opt.y_label = "P(X <= x)";
  opt.fix_y = true;
  opt.y_min = 0.0;
  opt.y_max = 1.0;
  std::ostringstream out;
  out << render_line_chart(series, opt);
  const double total = static_cast<double>(run.clients_24 + run.clients_5);
  out << "associated on 2.4 GHz: " << pct(static_cast<double>(run.clients_24) / total)
      << " (paper: ~80%)  |  median SNR 2.4=" << fixed(cdf24.median(), 1)
      << " dB, 5=" << fixed(cdf5.median(), 1) << " dB (paper: ~28 dB both, lower at 5 GHz)\n";
  return out.str();
}

}  // namespace wlm::analysis

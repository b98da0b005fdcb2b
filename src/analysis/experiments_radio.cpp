#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>

#include "analysis/experiments.hpp"
#include "core/chart.hpp"
#include "core/stats.hpp"
#include "core/table.hpp"
#include "deploy/neighbors.hpp"
#include "sim/fleet_runner.hpp"

namespace wlm::analysis {

namespace {

sim::WorldConfig radio_world_config(const ScenarioScale& scale, deploy::Epoch epoch,
                                    deploy::ApModel model) {
  sim::WorldConfig cfg;
  cfg.fleet.epoch = epoch;
  cfg.fleet.network_count = scale.networks;
  cfg.fleet.model = model;
  cfg.fleet.seed = scale.seed ^ 0x9d2c5680ULL ^ (static_cast<std::uint64_t>(epoch) << 24);
  cfg.client_scale = scale.client_scale;
  cfg.seed = scale.seed * 2654435761ULL + 17 + static_cast<std::uint64_t>(epoch);
  cfg.threads = scale.threads;
  cfg.mem_ceiling_mb = scale.mem_ceiling_mb;
  cfg.spill_dir = scale.spill_dir;
  return cfg;
}

std::vector<std::pair<double, double>> cdf_curve(const std::vector<double>& xs,
                                                 std::size_t points = 72) {
  return EmpiricalCdf{std::vector<double>(xs)}.curve(points);
}

}  // namespace

// ------------------------------------------------ Table 7 / Figure 2

NeighborRun run_neighbor_study(const ScenarioScale& scale) {
  NeighborRun run;
  std::map<int, std::uint64_t> hist24;
  std::map<int, std::uint64_t> hist5;

  for (const deploy::Epoch epoch : {deploy::Epoch::kJan2015, deploy::Epoch::kJul2014}) {
    sim::FleetRunner world(radio_world_config(scale, epoch, deploy::ApModel::kMr16));
    world.run_mr16_interference(SimTime::epoch() + Duration::hours(14));
    world.harvest();

    NeighborRun::EpochStats stats;
    std::uint64_t hotspots24 = 0;
    std::uint64_t hotspots5 = 0;
    world.reports().for_each([&](const wire::ApReport& report) {
      ++stats.ap_count;
      for (const auto& n : report.neighbors) {
        if (n.is_same_fleet) continue;  // Table 7 excludes the fleet's own APs
        if (n.band == 0) {
          ++stats.total_24;
          if (n.is_hotspot) ++hotspots24;
          if (epoch == deploy::Epoch::kJan2015) ++hist24[n.channel];
        } else {
          ++stats.total_5;
          if (n.is_hotspot) ++hotspots5;
          if (epoch == deploy::Epoch::kJan2015) ++hist5[n.channel];
        }
      }
    });
    stats.networks_per_ap_24 =
        static_cast<double>(stats.total_24) / std::max(1, stats.ap_count);
    stats.networks_per_ap_5 = static_cast<double>(stats.total_5) / std::max(1, stats.ap_count);
    stats.hotspot_frac_24 =
        stats.total_24 > 0 ? static_cast<double>(hotspots24) / static_cast<double>(stats.total_24)
                           : 0.0;
    stats.hotspot_frac_5 =
        stats.total_5 > 0 ? static_cast<double>(hotspots5) / static_cast<double>(stats.total_5)
                          : 0.0;
    (epoch == deploy::Epoch::kJan2015 ? run.now : run.six_months) = stats;
  }
  run.by_channel_24.assign(hist24.begin(), hist24.end());
  run.by_channel_5.assign(hist5.begin(), hist5.end());
  return run;
}

std::string render_table7(const NeighborRun& run) {
  TextTable table({"", "Networks", "Networks per AP", "paper per AP"},
                  {Align::kLeft, Align::kRight, Align::kRight, Align::kRight});
  table.add_row({"2.4 GHz (now)", with_commas(static_cast<long long>(run.now.total_24)),
                 fixed(run.now.networks_per_ap_24, 2), "55.47"});
  table.add_row({"2.4 GHz (six months ago)",
                 with_commas(static_cast<long long>(run.six_months.total_24)),
                 fixed(run.six_months.networks_per_ap_24, 2), "28.60"});
  table.add_row({"5 GHz (now)", with_commas(static_cast<long long>(run.now.total_5)),
                 fixed(run.now.networks_per_ap_5, 2), "3.68"});
  table.add_row({"5 GHz (six months ago)",
                 with_commas(static_cast<long long>(run.six_months.total_5)),
                 fixed(run.six_months.networks_per_ap_5, 2), "2.47"});
  std::ostringstream out;
  out << "Table 7: nearby non-fleet networks per AP\n" << table.render();
  out << "hotspot share 2.4 GHz: " << pct(run.now.hotspot_frac_24)
      << " now (paper ~20%), " << pct(run.six_months.hotspot_frac_24)
      << " six months ago (paper ~24%); 5 GHz now: " << pct(run.now.hotspot_frac_5)
      << " (paper 1.7%)\n";
  return out.str();
}

std::string render_fig2(const NeighborRun& run) {
  std::vector<std::pair<std::string, double>> bars;
  for (const auto& [channel, count] : run.by_channel_24) {
    bars.emplace_back("2.4 ch " + std::to_string(channel), static_cast<double>(count));
  }
  for (const auto& [channel, count] : run.by_channel_5) {
    bars.emplace_back("5  ch " + std::to_string(channel), static_cast<double>(count));
  }
  std::ostringstream out;
  out << render_bars(bars, "Figure 2: nearby networks by channel number");
  // The headline claim: channel 1 carries ~37% more networks than 6 or 11.
  auto count_of = [&](int channel) -> double {
    for (const auto& [c, n] : run.by_channel_24) {
      if (c == channel) return static_cast<double>(n);
    }
    return 0.0;
  };
  const double base = (count_of(6) + count_of(11)) / 2.0;
  if (base > 0.0) {
    out << "channel 1 vs channels 6/11: +" << fixed((count_of(1) / base - 1.0) * 100.0, 0)
        << "% (paper: ~+37%)\n";
  }
  return out.str();
}

// ------------------------------------------------- Figures 3/4/5

LinkRun run_link_study(const ScenarioScale& scale) {
  LinkRun run;
  sim::FleetRunner world(radio_world_config(scale, deploy::Epoch::kJan2015, deploy::ApModel::kMr16));

  // "Six months ago" differs by the interference level: the foreign-network
  // population was roughly half as dense (Table 7), so collision exposure
  // scales accordingly. Geometry and budgets are the same physical links.
  const auto params_now = deploy::neighbor_params(deploy::Epoch::kJan2015);
  const auto params_before = deploy::neighbor_params(deploy::Epoch::kJul2014);
  const double util_scale_before = params_before.mean_24 / params_now.mean_24;

  // Each link's two windows are measured on the worker pool; the CDFs are
  // then filled in link order, so they are the same at any thread count.
  struct LinkWindows {
    phy::Band band = phy::Band::k2_4GHz;
    sim::MeshLink::WindowResult before;
    sim::MeshLink::WindowResult now;
  };
  std::vector<LinkWindows> windows(world.mesh_links().size());
  world.for_each_link([&](std::size_t i, sim::MeshLink& link) {
    const auto& receiver = *world.find_ap(link.to());
    const double util =
        sim::serving_utilization(receiver, link.band(), /*hour=*/14.0);

    sim::ProbeOutcomeModel before_model;
    before_model.receiver_utilization = util * util_scale_before;
    before_model.hidden_fraction = sim::ProbeOutcomeModel::default_hidden_fraction(link.band());
    const auto before = link.measure_window(before_model);

    sim::ProbeOutcomeModel now_model;
    now_model.receiver_utilization = util;
    now_model.hidden_fraction = before_model.hidden_fraction;
    const auto now = link.measure_window(now_model);
    windows[i] = LinkWindows{link.band(), before, now};
  });

  for (const auto& w : windows) {
    // The paper plots links that reported in BOTH periods (alive links).
    if (w.before.received == 0 && w.now.received == 0) continue;
    if (w.band == phy::Band::k5GHz) {
      run.ratios_5_before.push_back(w.before.ratio());
      run.ratios_5_now.push_back(w.now.ratio());
    } else {
      run.ratios_24_before.push_back(w.before.ratio());
      run.ratios_24_now.push_back(w.now.ratio());
    }
  }

  // Figures 4/5: week-long series for two intermediate links per band.
  auto pick_series = [&](phy::Band band, std::vector<LinkRun::Series>& out) {
    std::size_t found = 0;
    auto take = [&](std::size_t i) {
      LinkRun::Series s;
      for (const auto& pt : world.link_week_series(i, Duration::minutes(30))) {
        s.hours.push_back(pt.hour_of_week);
        s.ratios.push_back(pt.ratio);
      }
      out.push_back(std::move(s));
      ++found;
    };
    for (std::size_t i = 0; i < world.mesh_links().size() && found < 2; ++i) {
      auto& link = world.mesh_links()[i];
      if (link.band() != band) continue;
      // Prefer links in the interesting (intermediate) regime.
      sim::ProbeOutcomeModel probe_model;
      probe_model.receiver_utilization = 0.2;
      const double p = link.delivery_probability(probe_model);
      if (p < 0.25 || p > 0.85) continue;
      take(i);
    }
    // Fall back to any link of the band if nothing intermediate exists.
    for (std::size_t i = 0; i < world.mesh_links().size() && found < 2; ++i) {
      if (world.mesh_links()[i].band() == band) take(i);
    }
  };
  pick_series(phy::Band::k2_4GHz, run.series_24);
  pick_series(phy::Band::k5GHz, run.series_5);
  return run;
}

std::string render_fig3(const LinkRun& run) {
  std::vector<Series> series;
  series.push_back(Series{"2.4 now", cdf_curve(run.ratios_24_now)});
  series.push_back(Series{"2.4 6mo ago", cdf_curve(run.ratios_24_before)});
  series.push_back(Series{"5 now", cdf_curve(run.ratios_5_now)});
  series.push_back(Series{"5 6mo ago", cdf_curve(run.ratios_5_before)});
  ChartOptions opt;
  opt.title = "Figure 3: link delivery ratio CDFs";
  opt.x_label = "delivery ratio";
  opt.y_label = "P(X <= x)";
  opt.fix_x = true;
  opt.x_max = 1.0;
  opt.fix_y = true;
  opt.y_max = 1.0;
  std::ostringstream out;
  out << render_line_chart(series, opt);

  auto perfect_frac = [](const std::vector<double>& v) {
    if (v.empty()) return 0.0;
    return static_cast<double>(std::count_if(v.begin(), v.end(),
                                             [](double r) { return r >= 0.99; })) /
           static_cast<double>(v.size());
  };
  auto intermediate_frac = [](const std::vector<double>& v) {
    if (v.empty()) return 0.0;
    return static_cast<double>(std::count_if(
               v.begin(), v.end(), [](double r) { return r > 0.05 && r < 0.95; })) /
           static_cast<double>(v.size());
  };
  out << with_commas(static_cast<long long>(run.ratios_24_now.size())) << " 2.4 GHz links, "
      << with_commas(static_cast<long long>(run.ratios_5_now.size())) << " 5 GHz links\n";
  out << "2.4 GHz intermediate links now: " << pct(intermediate_frac(run.ratios_24_now))
      << " (paper: majority);  5 GHz perfect links now: " << pct(perfect_frac(run.ratios_5_now))
      << " (paper: over half)\n";
  out << "2.4 GHz median delivery now vs 6mo ago: "
      << fixed(quantile(run.ratios_24_now, 0.5), 2) << " vs "
      << fixed(quantile(run.ratios_24_before, 0.5), 2) << " (paper: degraded over 6 months)\n";
  return out.str();
}

namespace {

std::string render_link_series(const std::vector<LinkRun::Series>& list, const char* title) {
  std::vector<Series> series;
  for (std::size_t i = 0; i < list.size(); ++i) {
    Series s;
    s.label = "link " + std::to_string(i + 1);
    for (std::size_t k = 0; k < list[i].hours.size(); ++k) {
      s.points.emplace_back(list[i].hours[k], list[i].ratios[k]);
    }
    series.push_back(std::move(s));
  }
  ChartOptions opt;
  opt.title = title;
  opt.x_label = "hour of week";
  opt.y_label = "delivery ratio";
  opt.fix_y = true;
  opt.y_max = 1.0;
  return render_line_chart(series, opt);
}

}  // namespace

std::string render_fig4(const LinkRun& run) {
  return render_link_series(run.series_24,
                            "Figure 4: 2.4 GHz delivery ratio over one week (two links)");
}

std::string render_fig5(const LinkRun& run) {
  return render_link_series(run.series_5,
                            "Figure 5: 5 GHz delivery ratio over one week (two links)");
}

// ------------------------------------------ Figures 6/7/8/9/10

UtilizationRun run_utilization_study(const ScenarioScale& scale) {
  UtilizationRun run;

  // --- MR16: serving-channel counters (Figure 6). ---
  {
    sim::FleetRunner world(radio_world_config(scale, deploy::Epoch::kJan2015, deploy::ApModel::kMr16));
    world.run_mr16_interference(SimTime::epoch() + Duration::hours(14));
    world.harvest();
    world.reports().for_each([&](const wire::ApReport& report) {
      for (const auto& u : report.utilization) {
        if (u.cycle_us == 0) continue;
        const double util = static_cast<double>(u.busy_us) / static_cast<double>(u.cycle_us);
        (u.band == 0 ? run.mr16_util_24 : run.mr16_util_5).push_back(util);
      }
    });
  }

  // --- MR18: all-channel scan windows, day and night (Figures 7-10). ---
  {
    sim::FleetRunner world(radio_world_config(scale, deploy::Epoch::kJan2015, deploy::ApModel::kMr18));
    const SimTime day = SimTime::epoch() + Duration::hours(10);
    const SimTime night = SimTime::epoch() + Duration::hours(22);
    world.run_mr18_scan(day, 10.0);
    world.run_mr18_scan(night, 22.0);
    world.harvest();

    world.reports().for_each([&](const wire::ApReport& report) {
      const bool is_day = report.timestamp_us < night.as_micros();
      // Neighbor counts per (band, channel) within this report.
      std::map<std::pair<int, int>, int> neighbors_on;
      for (const auto& n : report.neighbors) {
        if (!n.is_same_fleet) ++neighbors_on[{n.band, n.channel}];
      }
      // Figure 10 is a per-AP quantity: the share of this AP's total busy
      // airtime (summed over a band's channels) with decodable headers —
      // a single transmission's energy leaks into adjacent scanned channels
      // where it can never decode, so per-channel ratios would undercount.
      std::uint64_t busy_sum[2] = {0, 0};
      std::uint64_t frame_sum[2] = {0, 0};
      for (const auto& u : report.utilization) {
        if (u.cycle_us == 0) continue;
        const double util = static_cast<double>(u.busy_us) / static_cast<double>(u.cycle_us);
        const int count = neighbors_on[{u.band, u.channel}];
        const std::size_t b = u.band == 0 ? 0 : 1;
        if (is_day) {
          if (u.band == 0) {
            run.scatter_util_24.push_back(util);
            run.scatter_count_24.push_back(static_cast<double>(count));
            run.day_24.push_back(util);
          } else {
            run.scatter_util_5.push_back(util);
            run.scatter_count_5.push_back(static_cast<double>(count));
            run.day_5.push_back(util);
          }
          busy_sum[b] += u.busy_us;
          frame_sum[b] += u.rx_frame_us;
        } else {
          (u.band == 0 ? run.night_24 : run.night_5).push_back(util);
        }
      }
      if (is_day) {
        if (busy_sum[0] > 0) {
          run.decodable_24.push_back(static_cast<double>(frame_sum[0]) /
                                     static_cast<double>(busy_sum[0]));
        }
        if (busy_sum[1] > 0) {
          run.decodable_5.push_back(static_cast<double>(frame_sum[1]) /
                                    static_cast<double>(busy_sum[1]));
        }
      }
    });
    run.correlation_24 = pearson_correlation(run.scatter_count_24, run.scatter_util_24);
    run.correlation_5 = pearson_correlation(run.scatter_count_5, run.scatter_util_5);
  }
  return run;
}

std::string render_fig6(const UtilizationRun& run) {
  std::vector<Series> series;
  series.push_back(Series{"2.4 GHz", cdf_curve(run.mr16_util_24)});
  series.push_back(Series{"5 GHz", cdf_curve(run.mr16_util_5)});
  ChartOptions opt;
  opt.title = "Figure 6: channel utilization CDF (MR16 serving channels)";
  opt.x_label = "utilization";
  opt.y_label = "P(X <= x)";
  opt.fix_x = true;
  opt.x_max = 1.0;
  opt.fix_y = true;
  opt.y_max = 1.0;
  std::ostringstream out;
  out << render_line_chart(series, opt);
  out << "2.4 GHz: " << percentile_summary(run.mr16_util_24, true)
      << "  (paper: median 25%, p90 50%)\n";
  out << "5 GHz:   " << percentile_summary(run.mr16_util_5, true)
      << "  (paper: median 5%, p90 30%)\n";
  return out.str();
}

namespace {

std::string render_scatter_fig(const std::vector<double>& counts,
                               const std::vector<double>& utils, double correlation,
                               const char* title) {
  Series s;
  for (std::size_t i = 0; i < counts.size(); ++i) s.points.emplace_back(counts[i], utils[i]);
  ChartOptions opt;
  opt.title = title;
  opt.x_label = "nearby APs on channel";
  opt.y_label = "utilization";
  opt.fix_y = true;
  opt.y_max = 1.0;
  std::ostringstream out;
  out << render_scatter(s, opt);
  out << "Pearson correlation: " << fixed(correlation, 3)
      << " (paper: no clear correlation)\n";
  return out.str();
}

}  // namespace

std::string render_fig7(const UtilizationRun& run) {
  return render_scatter_fig(run.scatter_count_24, run.scatter_util_24, run.correlation_24,
                            "Figure 7: utilization vs nearby APs, 2.4 GHz (MR18 scans)");
}

std::string render_fig8(const UtilizationRun& run) {
  return render_scatter_fig(run.scatter_count_5, run.scatter_util_5, run.correlation_5,
                            "Figure 8: utilization vs nearby APs, 5 GHz (MR18 scans)");
}

std::string render_fig9(const UtilizationRun& run) {
  std::vector<Series> series;
  series.push_back(Series{"2.4 day", cdf_curve(run.day_24)});
  series.push_back(Series{"2.4 night", cdf_curve(run.night_24)});
  series.push_back(Series{"5 day", cdf_curve(run.day_5)});
  series.push_back(Series{"5 night", cdf_curve(run.night_5)});
  ChartOptions opt;
  opt.title = "Figure 9: channel utilization day (10am) vs night (10pm), MR18 all channels";
  opt.x_label = "utilization";
  opt.y_label = "P(X <= x)";
  opt.fix_x = true;
  opt.x_max = 1.0;
  opt.fix_y = true;
  opt.y_max = 1.0;
  std::ostringstream out;
  out << render_line_chart(series, opt);
  out << "2.4 GHz median day vs night: " << fixed(quantile(run.day_24, 0.5) * 100, 1) << "% vs "
      << fixed(quantile(run.night_24, 0.5) * 100, 1)
      << "% (paper: ~5 points higher by day); 5 GHz: "
      << fixed(quantile(run.day_5, 0.5) * 100, 1) << "% vs "
      << fixed(quantile(run.night_5, 0.5) * 100, 1) << "% (paper: similar, mass near zero)\n";
  return out.str();
}

std::string render_fig10(const UtilizationRun& run) {
  std::vector<Series> series;
  series.push_back(Series{"2.4 GHz", cdf_curve(run.decodable_24)});
  series.push_back(Series{"5 GHz", cdf_curve(run.decodable_5)});
  ChartOptions opt;
  opt.title = "Figure 10: fraction of busy time with decodable 802.11 headers";
  opt.x_label = "decodable fraction";
  opt.y_label = "P(X <= x)";
  opt.fix_x = true;
  opt.x_max = 1.0;
  opt.fix_y = true;
  opt.y_max = 1.0;
  std::ostringstream out;
  out << render_line_chart(series, opt);
  out << "2.4 GHz: " << percentile_summary(run.decodable_24, true)
      << "; 5 GHz: " << percentile_summary(run.decodable_5, true)
      << " (paper: majority of utilization is decodable 802.11)\n";
  return out.str();
}

}  // namespace wlm::analysis

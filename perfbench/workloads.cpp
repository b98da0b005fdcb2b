// wlm_perfbench: runs one benchmark workload once and writes what it
// measured as one JSON object.
//
//   wlm_perfbench --workload usage|radio|streaming --seed S --trace 0|1
//                 --out FILE --spill-dir DIR
//
// usage and radio call the study entry points in src/analysis
// (run_usage_study, run_neighbor_study, run_utilization_study,
// run_link_study) and their render_* functions; streaming calls FleetRunner's
// campaigns and the ckpt save/restore itself, as `wlmctl simulate` does.
// Every layer is measured from outside. The link step wraps the public
// functions the entry points call into (FleetRunner's constructor, campaigns
// and harvest, UsageAggregator::consume; see "wrapped calls" below), so each
// call is timed where the program makes it, and the code that runs is the
// program's own.
//
// With --trace 1 each wrapped call is also recorded as a span (name, start,
// end, parent), the program's own counters and phase timers are read, and two
// layers that only run inside another call are replayed on the same inputs
// (the tsdb read and the tsdb seal). Replays and output checks run on a
// paused clock, so they never count towards wall_s.
//
// run.py builds this binary, runs it, and turns its output into the
// benchmark's metrics and checks. README.md describes both.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "analysis/experiments.hpp"
#include "backend/aggregate.hpp"
#include "ckpt/campaign.hpp"
#include "core/checksum.hpp"
#include "deploy/population.hpp"
#include "sim/fleet_runner.hpp"
#include "telemetry/export.hpp"
#include "telemetry/profile.hpp"
#include "tsdb/segment.hpp"
#include "wire/encoder.hpp"

namespace {

using namespace wlm;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ------------------------------------------------------------ options

struct Options {
  std::string workload;
  std::uint64_t seed = 2015;
  bool trace = false;
  std::string out;
  std::string spill_dir;
};

/// Every workload runs the fleet size of ROADMAP's canonical run.
constexpr int kNetworks = 1000;

/// The window every analysis of these workloads reads: the study week.
const SimTime kFrom = SimTime::epoch();
const SimTime kTo = SimTime::epoch() + Duration::days(8);

Options parse_options(int argc, char** argv) {
  Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      opt.workload = value;
    } else if (key == "--seed") {
      opt.seed = std::stoull(value);
    } else if (key == "--trace") {
      opt.trace = value == "1";
    } else if (key == "--out") {
      opt.out = value;
    } else if (key == "--spill-dir") {
      opt.spill_dir = value;
    } else {
      throw std::invalid_argument("unknown option " + std::string(key));
    }
  }
  if (opt.out.empty() || opt.spill_dir.empty()) {
    throw std::invalid_argument("--out and --spill-dir are required");
  }
  return opt;
}

int hardware_threads() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<int>(n) : 1;
}

// ------------------------------------------------------------ clock + spans

/// Workload clock: seconds since the workload began, with untimed sections
/// (output checks, replays) cut out of the timeline.
class Timeline {
 public:
  [[nodiscard]] double now() const { return seconds_between(start_, Clock::now()) - excluded_; }

  template <class F>
  void untimed(F&& fn) {
    const auto t0 = Clock::now();
    fn();
    excluded_ += seconds_between(t0, Clock::now());
  }

 private:
  Clock::time_point start_ = Clock::now();
  double excluded_ = 0.0;
};

struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  int parent = -1;
};

/// Records one span per call into a layer, in memory; written out once at
/// exit. Off, it records nothing and only forwards the call.
class Tracer {
 public:
  Tracer(const Timeline& timeline, bool on) : timeline_(timeline), on_(on) {}

  template <class F>
  decltype(auto) span(const char* name, F&& fn) {
    if (!on_) return fn();
    const Closer closer(*this, open(name));
    return fn();
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  struct Closer {
    Closer(Tracer& t, int id) : tracer(t), index(id) {}
    ~Closer() { tracer.close(index); }
    Closer(const Closer&) = delete;
    Closer& operator=(const Closer&) = delete;
    Tracer& tracer;
    int index;
  };

  int open(const char* name) {
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back(Span{name, timeline_.now(), 0.0, parent});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void close(int index) {
    spans_[static_cast<std::size_t>(index)].end = timeline_.now();
    stack_.pop_back();
  }

  const Timeline& timeline_;
  bool on_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

// ------------------------------------------------------------ accounting

/// Cumulative counters one runner exposes. A workload's layer counts are
/// the sum over its runners of (value at the end - value at construction or
/// restore), so a restored runner's carried-over totals are not counted
/// twice.
struct RunnerCounts {
  std::uint64_t slow_path_calls = 0;
  std::uint64_t slow_path_ns = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  double wire_bytes = 0.0;
  std::uint64_t generated = 0;
  std::uint64_t delivered = 0;
  std::uint64_t segments = 0;
  std::uint64_t segment_bytes = 0;
  std::uint64_t raw_wire_bytes = 0;
  std::uint64_t segments_spilled = 0;
  std::uint64_t spilled_bytes = 0;

  RunnerCounts& operator+=(const RunnerCounts& o) {
    slow_path_calls += o.slow_path_calls;
    slow_path_ns += o.slow_path_ns;
    cache_hits += o.cache_hits;
    cache_misses += o.cache_misses;
    wire_bytes += o.wire_bytes;
    generated += o.generated;
    delivered += o.delivered;
    segments += o.segments;
    segment_bytes += o.segment_bytes;
    raw_wire_bytes += o.raw_wire_bytes;
    segments_spilled += o.segments_spilled;
    spilled_bytes += o.spilled_bytes;
    return *this;
  }
  RunnerCounts operator-(const RunnerCounts& o) const {
    RunnerCounts d = *this;
    d.slow_path_calls -= o.slow_path_calls;
    d.slow_path_ns -= o.slow_path_ns;
    d.cache_hits -= o.cache_hits;
    d.cache_misses -= o.cache_misses;
    d.wire_bytes -= o.wire_bytes;
    d.generated -= o.generated;
    d.delivered -= o.delivered;
    d.segments -= o.segments;
    d.segment_bytes -= o.segment_bytes;
    d.raw_wire_bytes -= o.raw_wire_bytes;
    d.segments_spilled -= o.segments_spilled;
    d.spilled_bytes -= o.spilled_bytes;
    return d;
  }
};

RunnerCounts read_counts(const sim::FleetRunner& runner) {
  RunnerCounts c;
  for (const auto& shard : runner.shards()) {
    const auto& classifier = shard->classifier();
    c.slow_path_calls += classifier.slow_path_calls();
    c.slow_path_ns += classifier.profile().total_ns;
    c.cache_hits += classifier.cache().stats().hits;
    c.cache_misses += classifier.cache().stats().misses;
  }
  c.wire_bytes = runner.mean_report_bytes_per_ap() * static_cast<double>(runner.aps().size());
  const fault::LossLedger ledger = runner.loss_ledger();
  c.generated = ledger.generated;
  c.delivered = ledger.delivered;
  const tsdb::FleetStoreStats& ts = runner.fleet_tsdb().stats();
  c.segments = ts.segments_sealed;
  c.segment_bytes = ts.segment_bytes();
  c.raw_wire_bytes = ts.raw_wire_bytes;
  c.segments_spilled = ts.segments_spilled;
  c.spilled_bytes = ts.spilled_bytes;
  return c;
}

double profiler_seconds(std::string_view phase) {
  for (const auto& [name, stats] : telemetry::global_profiler().phases()) {
    if (name == phase) return stats.seconds;
  }
  return 0.0;
}

void crc_text(std::uint32_t& crc, std::string_view text) {
  crc = crc32_update(crc, std::span<const std::uint8_t>(
                              reinterpret_cast<const std::uint8_t*>(text.data()), text.size()));
}

std::string hex32(std::uint32_t v) {
  char buf[9];
  std::snprintf(buf, sizeof buf, "%08x", v);
  return buf;
}

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// ------------------------------------------------------------ one run

class Bench {
 public:
  explicit Bench(Options opt) : opt_(std::move(opt)), tracer_(timeline_, opt_.trace) {
    telemetry::reset_global_profiler();
    telemetry::work_tally().reset();
  }

  [[nodiscard]] const Options& options() const { return opt_; }
  void set_workers(int workers) { workers_ = workers; }
  [[nodiscard]] int workers() const { return workers_; }

  template <class F>
  decltype(auto) span(const char* name, F&& fn) {
    return tracer_.span(name, std::forward<F>(fn));
  }

  /// A FleetRunner construction (fleet generation + shard build): the
  /// workload's set-up. Traced, the profiler's `build` phase splits it.
  template <class F>
  void construct(const sim::FleetRunner* runner, F&& build) {
    const double build_before = opt_.trace ? profiler_seconds("build") : 0.0;
    const double t0 = timeline_.now();
    span("sim.FleetRunner", std::forward<F>(build));
    const double elapsed = timeline_.now() - t0;
    setup_s_ += elapsed;
    ++constructions_;
    if (opt_.trace) {
      const double built = profiler_seconds("build") - build_before;
      build_s_ += built;
      generate_s_ += elapsed - built;
    }
    adopt(*runner);
  }

  /// A harvest: after it the runner's reports are final, so its counts are
  /// taken and its outputs signed (on the paused clock).
  template <class F>
  void harvest(const sim::FleetRunner& runner, F&& fn) {
    span("sim.harvest", std::forward<F>(fn));
    ++harvests_;
    account(runner);
    sign(runner);
  }

  /// Starts counting a runner's cumulative counters from their current
  /// values (construction, or a checkpoint restore).
  void adopt(const sim::FleetRunner& runner) {
    timeline_.untimed([&] { baselines_[&runner] = read_counts(runner); });
  }

  /// Adds what a runner did since it was adopted or last accounted to the
  /// workload's totals, and checks its loss ledger closes.
  void account(const sim::FleetRunner& runner) {
    timeline_.untimed([&] {
      const RunnerCounts now = read_counts(runner);
      const RunnerCounts delta = now - baselines_[&runner];
      counts_ += delta;
      if (delta.wire_bytes > 0.0) aps_ += runner.aps().size();
      baselines_[&runner] = now;
      if (!runner.loss_ledger().conserved()) ++ledger_violations_;
    });
  }

  template <class F>
  void render(const char* name, F&& fn) {
    const std::string text = span("analysis.render", std::forward<F>(fn));
    timeline_.untimed([&] {
      std::uint32_t crc = 0;
      crc_text(crc, text);
      renders_[name] = crc;
    });
  }

  void mark_resume_start() { resume_start_ = timeline_.now(); }
  void mark_resume_end() { resume_s_ = timeline_.now() - resume_start_; }
  void set_checkpoint_bytes(std::size_t n) { ckpt_bytes_ = n; }
  void finish() { wall_s_ = timeline_.now(); }

  /// Why the wrapped calls cannot be trusted, or "" when they can: a
  /// workload that constructed or harvested nothing through them ran code
  /// the link step no longer reaches.
  [[nodiscard]] std::string interception_error() const {
    if (constructions_ == 0) return "no FleetRunner construction went through the wrapped calls";
    if (harvests_ == 0) return "no harvest went through the wrapped calls";
    return "";
  }

  [[nodiscard]] std::string to_json(const std::string& error) const;

 private:
  /// Signs a harvested runner's outputs: every report it holds (wire
  /// encoding) and the Prometheus export of its merged metrics. Also counts
  /// the reports an analysis reading the study window sees, for the
  /// read-side identity against the ledger's delivered count. Traced, it
  /// replays the read and the seal.
  void sign(const sim::FleetRunner& runner) {
    timeline_.untimed([&] {
      wire::Encoder encoder;
      runner.reports().for_each([&](const wire::ApReport& report) {
        wire::encode_report_into(report, encoder);
        reports_crc_ = crc32_update(reports_crc_, encoder.bytes());
        if (report.timestamp_us >= kFrom.as_micros() && report.timestamp_us < kTo.as_micros()) {
          ++consumed_;
        }
      });
      if (runner.fleet_tsdb().last_error()) ++read_errors_;
      delivered_final_ += runner.loss_ledger().delivered;
      crc_text(prometheus_crc_, telemetry::to_prometheus(runner.metrics()));
      if (!opt_.trace) return;
      // The tsdb read on its own: the analyses' visit with a visitor that
      // does nothing.
      const auto r0 = Clock::now();
      runner.reports().for_each_in(kFrom, kTo, [](const wire::ApReport&) {});
      read_s_ += seconds_between(r0, Clock::now());
      reseal(runner);
    });
  }

  /// Re-seals every segment of the runner's vault into a fresh FleetStore
  /// (timing only the append_store calls) and compares the bytes.
  void reseal(const sim::FleetRunner& runner) {
    const tsdb::FleetStore& vault = runner.fleet_tsdb();
    tsdb::FleetStore fresh;
    std::vector<std::uint8_t> original;
    std::vector<std::uint8_t> resealed;
    for (std::size_t i = 0; i < vault.segment_count(); ++i) {
      const auto info = vault.info(i);
      backend::ReportStore store;
      if (vault.segment_bytes(i, original) ||
          tsdb::SegmentReader::for_each(original, [&](wire::ApReport&& r) {
            store.add(std::move(r));
          })) {
        ++reseal_mismatches_;
        continue;
      }
      const auto t0 = Clock::now();
      fresh.append_store(info.network_id, std::move(store));
      seal_replay_s_ += seconds_between(t0, Clock::now());
      if (fresh.segment_bytes(fresh.segment_count() - 1, resealed) || resealed != original) {
        ++reseal_mismatches_;
      }
    }
  }

  Options opt_;
  Timeline timeline_;
  Tracer tracer_;
  int workers_ = 1;

  double wall_s_ = 0.0;
  double setup_s_ = 0.0;
  double build_s_ = 0.0;
  double generate_s_ = 0.0;
  double resume_start_ = 0.0;
  double resume_s_ = -1.0;
  std::size_t aps_ = 0;
  std::size_t ckpt_bytes_ = 0;
  int constructions_ = 0;
  int harvests_ = 0;

  std::map<const sim::FleetRunner*, RunnerCounts> baselines_;
  RunnerCounts counts_;
  std::uint64_t ledger_violations_ = 0;

  std::uint32_t reports_crc_ = 0;
  std::uint32_t prometheus_crc_ = 0;
  std::map<std::string, std::uint32_t> renders_;
  std::uint64_t consumed_ = 0;
  std::uint64_t delivered_final_ = 0;
  std::uint64_t read_errors_ = 0;

  double read_s_ = 0.0;
  double seal_replay_s_ = 0.0;
  std::uint64_t reseal_mismatches_ = 0;
};

std::string Bench::to_json(const std::string& error) const {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  const double peak_rss_mib = static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
#ifdef __OPTIMIZE__
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
  std::ostringstream o;
  o << "{\"error\": " << json_string(error);
  o << ", \"host\": {\"nproc\": " << hardware_threads()
    << ", \"build_type\": " << json_string(WLM_BENCH_BUILD_TYPE)
    << ", \"optimized\": " << (optimized ? "true" : "false")
    << ", \"compiler\": " << json_string(WLM_BENCH_COMPILER)
    << ", \"workload\": " << json_string(opt_.workload) << ", \"seed\": " << opt_.seed
    << ", \"workers\": " << workers_ << ", \"networks\": " << kNetworks << "}";
  o << ", \"traced\": " << (opt_.trace ? "true" : "false");
  o << ", \"wall_s\": " << json_number(wall_s_) << ", \"setup_s\": " << json_number(setup_s_)
    << ", \"resume_s\": " << (resume_s_ >= 0.0 ? json_number(resume_s_) : "null")
    << ", \"peak_rss_mib\": " << json_number(peak_rss_mib);
  o << ", \"checks\": {\"generated\": " << counts_.generated
    << ", \"delivered\": " << counts_.delivered
    << ", \"ledger_violations\": " << ledger_violations_
    << ", \"consumed\": " << consumed_ << ", \"delivered_final\": " << delivered_final_
    << ", \"read_errors\": " << read_errors_
    << ", \"reseal_mismatches\": " << reseal_mismatches_ << "}";
  o << ", \"signature\": {\"reports\": " << json_string(hex32(reports_crc_))
    << ", \"prometheus\": " << json_string(hex32(prometheus_crc_)) << ", \"renders\": {";
  bool first = true;
  for (const auto& [name, crc] : renders_) {
    o << (first ? "" : ", ") << json_string(name) << ": " << json_string(hex32(crc));
    first = false;
  }
  o << "}}";
  if (opt_.trace) {
    const auto& tally = telemetry::work_tally();
    std::map<std::string, double> phases;
    for (const auto& [name, stats] : telemetry::global_profiler().phases()) {
      phases[name] = stats.seconds;
    }
    const double aps = static_cast<double>(std::max<std::size_t>(aps_, 1));
    const std::map<std::string, double> layers = {
        {"deploy.generate_s", generate_s_},
        {"sim.build_s", build_s_},
        {"traffic.fragments", static_cast<double>(tally.fragments.load())},
        {"wire.frames", static_cast<double>(tally.frames.load())},
        {"wire.bytes_per_ap", counts_.wire_bytes / aps},
        {"classify.slow_path_calls", static_cast<double>(counts_.slow_path_calls)},
        {"classify.slow_path_cpu_s", static_cast<double>(counts_.slow_path_ns) / 1e9},
        {"classify.cache_hits", static_cast<double>(counts_.cache_hits)},
        {"classify.lookups", static_cast<double>(counts_.cache_hits + counts_.cache_misses)},
        {"backend.reports_delivered", static_cast<double>(counts_.delivered)},
        {"tsdb.segments", static_cast<double>(counts_.segments)},
        {"tsdb.segment_bytes", static_cast<double>(counts_.segment_bytes)},
        {"tsdb.raw_wire_bytes", static_cast<double>(counts_.raw_wire_bytes)},
        {"tsdb.segments_spilled", static_cast<double>(counts_.segments_spilled)},
        {"tsdb.spilled_bytes", static_cast<double>(counts_.spilled_bytes)},
        {"tsdb.read_s", read_s_},
        {"tsdb.seal_replay_s", seal_replay_s_},
        {"ckpt.bytes", static_cast<double>(ckpt_bytes_)},
    };
    o << ", \"phases\": {";
    first = true;
    for (const auto& [name, s] : phases) {
      o << (first ? "" : ", ") << json_string(name) << ": " << json_number(s);
      first = false;
    }
    o << "}, \"layers\": {";
    first = true;
    for (const auto& [name, v] : layers) {
      o << (first ? "" : ", ") << json_string(name) << ": " << json_number(v);
      first = false;
    }
    o << "}, \"spans\": [";
    const auto& spans = tracer_.spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      o << (i == 0 ? "" : ", ") << "[" << json_string(spans[i].name) << ", "
        << json_number(spans[i].start) << ", " << json_number(spans[i].end) << ", "
        << spans[i].parent << "]";
    }
    o << "]";
  }
  o << "}\n";
  return o.str();
}

/// The run in progress; the wrapped calls report to it.
Bench* g_bench = nullptr;

// ------------------------------------------------------------ workloads

analysis::ScenarioScale study_scale(const Bench& b) {
  analysis::ScenarioScale scale;
  scale.networks = kNetworks;
  scale.client_scale = 1.0;
  scale.seed = b.options().seed;
  scale.threads = b.workers();
  return scale;
}

/// Tables 3/5/6.
void run_usage(Bench& b) {
  const auto run = b.span("analysis.run_usage_study",
                          [&] { return analysis::run_usage_study(study_scale(b)); });
  b.render("table3", [&] { return analysis::render_table3(run); });
  b.render("table5", [&] { return analysis::render_table5(run); });
  b.render("table6", [&] { return analysis::render_table6(run); });
}

/// Table 7 and Figures 2/3/6-10: the neighbor, utilization and link studies.
void run_radio(Bench& b) {
  const auto scale = study_scale(b);
  const auto neighbors = b.span("analysis.run_neighbor_study",
                                [&] { return analysis::run_neighbor_study(scale); });
  const auto utilization = b.span("analysis.run_utilization_study",
                                  [&] { return analysis::run_utilization_study(scale); });
  const auto links =
      b.span("analysis.run_link_study", [&] { return analysis::run_link_study(scale); });
  b.render("table7", [&] { return analysis::render_table7(neighbors); });
  b.render("fig2", [&] { return analysis::render_fig2(neighbors); });
  b.render("fig3", [&] { return analysis::render_fig3(links); });
  b.render("fig6", [&] { return analysis::render_fig6(utilization); });
  b.render("fig7", [&] { return analysis::render_fig7(utilization); });
  b.render("fig8", [&] { return analysis::render_fig8(utilization); });
  b.render("fig9", [&] { return analysis::render_fig9(utilization); });
  b.render("fig10", [&] { return analysis::render_fig10(utilization); });
}

constexpr std::uint64_t kStreamingCeilingMb = 64;

/// The `wlmctl simulate` campaign under a memory ceiling, cut by a
/// checkpoint after the usage week and resumed from it: usage_week, save,
/// restore, mr16, link_windows, harvest, then Table 3 from the result.
void run_streaming(Bench& b) {
  sim::WorldConfig cfg;
  cfg.fleet.epoch = deploy::Epoch::kJan2015;
  cfg.fleet.network_count = kNetworks;
  cfg.fleet.seed = b.options().seed;
  cfg.seed = cfg.fleet.seed + 1;
  cfg.threads = b.workers();
  cfg.mem_ceiling_mb = kStreamingCeilingMb;
  cfg.spill_dir = b.options().spill_dir;

  std::vector<std::uint8_t> checkpoint;
  {
    auto world = std::make_unique<sim::FleetRunner>(cfg);
    world->run_usage_week();
    ckpt::CampaignProgress progress;
    progress.label = "perfbench";
    progress.phases_done = {"usage_week"};
    checkpoint = b.span("ckpt.save_campaign", [&] { return ckpt::save_campaign(*world, progress); });
    b.set_checkpoint_bytes(checkpoint.size());
    b.account(*world);
    b.span("sim.~FleetRunner", [&] { world.reset(); });
  }

  b.mark_resume_start();
  ckpt::RestoredCampaign restored;
  const ckpt::Error err = b.span("ckpt.restore_campaign", [&] {
    return ckpt::restore_campaign(checkpoint, b.workers(), restored);
  });
  if (err) throw std::runtime_error("restore_campaign: " + err.detail);
  std::vector<std::uint8_t>().swap(checkpoint);
  sim::FleetRunner& resumed = *restored.runner;
  // The ceiling and spill directory belong to the resuming host, not the
  // checkpoint: apply this host's, as FleetRunner's constructor would.
  resumed.fleet_tsdb().set_mem_ceiling(kStreamingCeilingMb * 1024 * 1024);
  resumed.fleet_tsdb().set_spill_dir(b.options().spill_dir);
  b.adopt(resumed);
  resumed.run_mr16_interference(SimTime::epoch() + Duration::hours(14));
  resumed.run_link_windows(SimTime::epoch() + Duration::hours(14));
  resumed.harvest();
  analysis::UsageRun run;
  run.agg_2015.consume(resumed.reports(), kFrom, kTo);
  run.upscale_2015 = deploy::total_clients(deploy::Epoch::kJan2015) /
                     static_cast<double>(std::max<std::size_t>(run.agg_2015.client_count(), 1));
  b.render("table3", [&] { return analysis::render_table3(run); });
  b.mark_resume_end();
  b.span("sim.~FleetRunner", [&] { restored.runner.reset(); });
}

}  // namespace

// ------------------------------------------------------------ wrapped calls
//
// CMakeLists.txt links with --wrap=<symbol> for each function below, so
// every call into it from another object file (the study entry points, the
// ckpt restore, the workloads above) reaches __wrap_<symbol>, which calls
// the function itself as __real_<symbol>. The declarations follow the
// Itanium C++ ABI: `this` comes first, and a class that is not trivially
// copyable, passed by value, arrives as a pointer to the caller's copy.
// Changing one of these functions' signatures changes its symbol, and the
// benchmark then fails to link until the list is updated.

static_assert(!std::is_trivially_copyable_v<sim::WorldConfig>,
              "FleetRunner(WorldConfig) must receive its argument by address");

extern "C" {

void __real__ZN3wlm3sim11FleetRunnerC1ENS0_11WorldConfigE(sim::FleetRunner* self,
                                                          sim::WorldConfig* config);
void __wrap__ZN3wlm3sim11FleetRunnerC1ENS0_11WorldConfigE(sim::FleetRunner* self,
                                                          sim::WorldConfig* config) {
  g_bench->construct(self, [&] { __real__ZN3wlm3sim11FleetRunnerC1ENS0_11WorldConfigE(self, config); });
}

void __real__ZN3wlm3sim11FleetRunner14run_usage_weekEiRKSt6vectorINS_7traffic11UpdateSpikeESaIS4_EE(
    sim::FleetRunner* self, int reports_per_week, const std::vector<traffic::UpdateSpike>& spikes);
void __wrap__ZN3wlm3sim11FleetRunner14run_usage_weekEiRKSt6vectorINS_7traffic11UpdateSpikeESaIS4_EE(
    sim::FleetRunner* self, int reports_per_week, const std::vector<traffic::UpdateSpike>& spikes) {
  g_bench->span("sim.run_usage_week", [&] {
    __real__ZN3wlm3sim11FleetRunner14run_usage_weekEiRKSt6vectorINS_7traffic11UpdateSpikeESaIS4_EE(
        self, reports_per_week, spikes);
  });
}

void __real__ZN3wlm3sim11FleetRunner21run_mr16_interferenceENS_7SimTimeE(sim::FleetRunner* self,
                                                                         SimTime t);
void __wrap__ZN3wlm3sim11FleetRunner21run_mr16_interferenceENS_7SimTimeE(sim::FleetRunner* self,
                                                                         SimTime t) {
  g_bench->span("sim.run_mr16_interference", [&] {
    __real__ZN3wlm3sim11FleetRunner21run_mr16_interferenceENS_7SimTimeE(self, t);
  });
}

void __real__ZN3wlm3sim11FleetRunner13run_mr18_scanENS_7SimTimeEd(sim::FleetRunner* self,
                                                                  SimTime t, double hour);
void __wrap__ZN3wlm3sim11FleetRunner13run_mr18_scanENS_7SimTimeEd(sim::FleetRunner* self,
                                                                  SimTime t, double hour) {
  g_bench->span("sim.run_mr18_scan", [&] {
    __real__ZN3wlm3sim11FleetRunner13run_mr18_scanENS_7SimTimeEd(self, t, hour);
  });
}

void __real__ZN3wlm3sim11FleetRunner16run_link_windowsENS_7SimTimeE(sim::FleetRunner* self,
                                                                    SimTime t);
void __wrap__ZN3wlm3sim11FleetRunner16run_link_windowsENS_7SimTimeE(sim::FleetRunner* self,
                                                                    SimTime t) {
  g_bench->span("sim.run_link_windows", [&] {
    __real__ZN3wlm3sim11FleetRunner16run_link_windowsENS_7SimTimeE(self, t);
  });
}

void __real__ZN3wlm3sim11FleetRunner7harvestENS0_11HarvestModeE(sim::FleetRunner* self,
                                                                sim::HarvestMode mode);
void __wrap__ZN3wlm3sim11FleetRunner7harvestENS0_11HarvestModeE(sim::FleetRunner* self,
                                                                sim::HarvestMode mode) {
  g_bench->harvest(*self, [&] { __real__ZN3wlm3sim11FleetRunner7harvestENS0_11HarvestModeE(self, mode); });
}

void __real__ZN3wlm7backend15UsageAggregator7consumeERKNS0_12ReportSourceENS_7SimTimeES5_(
    backend::UsageAggregator* self, const backend::ReportSource& source, SimTime from, SimTime to);
void __wrap__ZN3wlm7backend15UsageAggregator7consumeERKNS0_12ReportSourceENS_7SimTimeES5_(
    backend::UsageAggregator* self, const backend::ReportSource& source, SimTime from, SimTime to) {
  g_bench->span("backend.consume", [&] {
    __real__ZN3wlm7backend15UsageAggregator7consumeERKNS0_12ReportSourceENS_7SimTimeES5_(
        self, source, from, to);
  });
}

}  // extern "C"

int main(int argc, char** argv) {
  Options opt;
  try {
    opt = parse_options(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "wlm_perfbench: %s\n", e.what());
    return 2;
  }
  const std::map<std::string, std::pair<void (*)(Bench&), int>> workloads = {
      {"usage", {run_usage, 4}},
      {"radio", {run_radio, 4}},
      {"streaming", {run_streaming, 1}},
  };
  const auto it = workloads.find(opt.workload);
  if (it == workloads.end()) {
    std::fprintf(stderr, "wlm_perfbench: unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }
  Bench bench(opt);
  bench.set_workers(std::min(it->second.second, hardware_threads()));
  g_bench = &bench;
  std::string error;
  try {
    bench.span("workload", [&] { it->second.first(bench); });
    error = bench.interception_error();
  } catch (const std::exception& e) {
    error = e.what();
  }
  bench.finish();
  std::FILE* out = std::fopen(opt.out.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "wlm_perfbench: cannot write %s\n", opt.out.c_str());
    return 1;
  }
  const std::string json = bench.to_json(error);
  const bool written = std::fwrite(json.data(), 1, json.size(), out) == json.size();
  if (std::fclose(out) != 0 || !written) {
    std::fprintf(stderr, "wlm_perfbench: short write to %s\n", opt.out.c_str());
    return 1;
  }
  return error.empty() ? 0 : 1;
}

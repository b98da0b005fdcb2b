// wlmctl — command-line front end for the wlm measurement system.
//
//   wlmctl simulate [--networks N] [--seed S] [--jobs N] [--faults SPEC]
//                   [--checkpoint-out F] [--checkpoint-every H]
//                   [--resume-from F] [--halt-after-phase P]
//   wlmctl report   <artifact> [--networks N]    regenerate one paper table,
//                                                figure or check (artifacts())
//   wlmctl health   [--networks N] [--faults SPEC]  run a faulted week, triage
//   wlmctl pcap     <path> [--flows N]           export a synthetic capture
//   wlmctl stats    [--faults SPEC] [--metrics-out F] [--trace-out F]
//                                                run a campaign, dump telemetry
#include <algorithm>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/experiments.hpp"
#include "analysis/export.hpp"
#include "analysis/scorecard.hpp"
#include "backend/health.hpp"
#include "ckpt/campaign.hpp"
#include "cli/parse.hpp"
#include "failsafe/failpoint.hpp"
#include "failsafe/supervisor.hpp"
#include "fault/spec.hpp"
#include "sim/fleet_runner.hpp"
#include "telemetry/export.hpp"
#include "traffic/pcap.hpp"
#include "traffic/workload.hpp"
#include "wlmctl_options.hpp"

namespace {

using namespace wlm;
using wlmctl::kFleetOptions;
using wlmctl::kMeshOptions;
using wlmctl::kMobilityOptions;
using wlmctl::OptionList;

struct Args {
  std::map<std::string, std::string> options;
  std::vector<std::string> positional;
  /// Set when any option failed to parse; commands bail with exit code 2.
  mutable bool bad = false;

  // Both getters go through cli::parse_* — the strict whitelist parsers —
  // so every numeric flag uniformly rejects NaN/inf spellings, hex, empty
  // values, trailing junk, and overflow. strtod's permissiveness once let
  // `--roam-prob nan` through ([0,1] range checks pass NaN), silently
  // running a different scenario than asked.
  [[nodiscard]] int get_int(const std::string& name, int fallback) const {
    const auto it = options.find(name);
    if (it == options.end()) return fallback;
    const auto v = cli::parse_int(it->second, INT_MIN, INT_MAX);
    if (!v) {
      std::fprintf(stderr, "wlmctl: --%s expects an integer, got '%s'\n", name.c_str(),
                   it->second.c_str());
      bad = true;
      return fallback;
    }
    return static_cast<int>(*v);
  }
  [[nodiscard]] double get_double(const std::string& name, double fallback) const {
    const auto it = options.find(name);
    if (it == options.end()) return fallback;
    const auto v = cli::parse_double(it->second);
    if (!v) {
      std::fprintf(stderr, "wlmctl: --%s expects a finite number, got '%s'\n",
                   name.c_str(), it->second.c_str());
      bad = true;
      return fallback;
    }
    return *v;
  }
};

/// One subcommand and the options it reads.
struct Command {
  const char* name;
  int (*run)(const Args&);
  OptionList options;
};

bool contains(const OptionList& options, std::string_view name) {
  return std::find(options.begin(), options.end(), name) != options.end();
}

/// Splits the arguments after the subcommand into options and positionals.
/// An option `command` does not read, or a final option with no value, is
/// a usage error (nullopt, after a diagnostic): a misspelled or retired
/// flag must fail, not silently run a different scenario than asked.
std::optional<Args> parse_args(int argc, char** argv, const Command& command) {
  Args args;
  for (int i = 2; i < argc; ++i) {
    const std::string token = argv[i];
    if (token.rfind("--", 0) != 0) {
      args.positional.push_back(token);
      continue;
    }
    const std::string name = token.substr(2);
    if (!contains(command.options, name)) {
      std::fprintf(stderr, "wlmctl: unknown option --%s for %s\n", name.c_str(), command.name);
      return std::nullopt;
    }
    if (i + 1 == argc) {
      std::fprintf(stderr, "wlmctl: --%s expects a value\n", name.c_str());
      return std::nullopt;
    }
    args.options[name] = argv[++i];
  }
  return args;
}

/// Validates the scale/parallelism options shared by every world-building
/// command. Prints a diagnostic and returns false on a bad value. The
/// upper bound is the paper's audited full fleet (20,667 networks, Table
/// 2): every code path is exercised at that scale (BENCH_fullscale.json),
/// anything beyond it is untested territory — rejected, not clamped, so a
/// typo'd count fails loudly.
bool validate_scale(const Args& args, int networks, int jobs) {
  if (args.bad) return false;
  if (networks < 1) {
    std::fprintf(stderr, "wlmctl: --networks must be >= 1 (got %d)\n", networks);
    return false;
  }
  if (networks > analysis::paper_network_count()) {
    std::fprintf(stderr,
                 "wlmctl: --networks is audited up to %d (the paper's full fleet); "
                 "got %d\n",
                 analysis::paper_network_count(), networks);
    return false;
  }
  if (jobs < 1) {
    std::fprintf(stderr, "wlmctl: --jobs must be >= 1 (got %d)\n", jobs);
    return false;
  }
  return true;
}

/// Resolves --networks against the --scale preset. `--scale paper` presets
/// the audited full fleet (20,667 networks); an explicit --networks wins.
int resolve_networks(const Args& args, int fallback) {
  if (const auto it = args.options.find("scale"); it != args.options.end()) {
    if (it->second != "paper") {
      std::fprintf(stderr, "wlmctl: --scale expects 'paper', got '%s'\n",
                   it->second.c_str());
      args.bad = true;
      return fallback;
    }
    if (args.options.count("networks") == 0) return analysis::paper_network_count();
  }
  return args.get_int("networks", fallback);
}

/// Applies the shared streaming-harvest flags (--mem-ceiling-mb,
/// --spill-dir) to an experiment scale; returns false on a bad value.
bool apply_mem_ceiling(const Args& args, std::uint64_t& mem_ceiling_mb,
                       std::string& spill_dir) {
  const int ceiling = args.get_int("mem-ceiling-mb", 0);
  if (args.bad) return false;
  if (ceiling < 0) {
    std::fprintf(stderr, "wlmctl: --mem-ceiling-mb must be >= 0 (got %d)\n", ceiling);
    return false;
  }
  mem_ceiling_mb = static_cast<std::uint64_t>(ceiling);
  if (const auto it = args.options.find("spill-dir"); it != args.options.end()) {
    if (it->second.empty()) {
      std::fprintf(stderr, "wlmctl: --spill-dir expects a directory\n");
      return false;
    }
    spill_dir = it->second;
  }
  return true;
}

/// Applies the shared mobility flags (--mobility on|off, --roam-prob P,
/// --mobility-speed M, --mobility-steps N) to a MobilityConfig; returns
/// false on a bad value. Out-of-range values are rejected loudly here —
/// MobilityConfig::clamped() exists for programmatic callers, but a typo'd
/// CLI flag should fail, not silently run a different scenario.
bool apply_mobility(const Args& args, mobility::MobilityConfig& mobility) {
  if (const auto it = args.options.find("mobility"); it != args.options.end()) {
    if (it->second == "on") {
      mobility.enabled = true;
    } else if (it->second == "off") {
      mobility.enabled = false;
    } else {
      std::fprintf(stderr, "wlmctl: --mobility expects on|off, got '%s'\n",
                   it->second.c_str());
      return false;
    }
  }
  const double roam = args.get_double("roam-prob", mobility.roam_probability);
  if (args.bad) return false;
  if (roam < 0.0 || roam > 1.0) {
    std::fprintf(stderr, "wlmctl: --roam-prob must be in [0,1] (got %g)\n", roam);
    return false;
  }
  mobility.roam_probability = roam;
  const double speed = args.get_double("mobility-speed", mobility.speed_mps);
  if (args.bad) return false;
  if (!(speed > 0.0 && speed <= 10.0)) {
    std::fprintf(stderr, "wlmctl: --mobility-speed must be in (0,10] m/s (got %g)\n",
                 speed);
    return false;
  }
  mobility.speed_mps = speed;
  const int steps = args.get_int("mobility-steps", mobility.steps_per_week);
  if (args.bad) return false;
  if (steps < 1 || steps > 100'000) {
    std::fprintf(stderr, "wlmctl: --mobility-steps must be in [1,100000] (got %d)\n",
                 steps);
    return false;
  }
  mobility.steps_per_week = steps;
  return true;
}

/// Applies the shared mesh backhaul flags (--mesh-fraction F,
/// --mesh-max-hops N, --mesh-floor-dbm D, --mesh-drift-db D) to a
/// MeshConfig; returns false on a bad value. Same policy as mobility:
/// MeshConfig::clamped() exists for programmatic callers, but a typo'd CLI
/// flag must fail, not silently run a different scenario.
bool apply_mesh(const Args& args, mesh::MeshConfig& mesh) {
  const double fraction = args.get_double("mesh-fraction", mesh.mesh_fraction);
  if (args.bad) return false;
  if (fraction < 0.0 || fraction > 0.95) {
    std::fprintf(stderr, "wlmctl: --mesh-fraction must be in [0,0.95] (got %g)\n",
                 fraction);
    return false;
  }
  mesh.mesh_fraction = fraction;
  const int hops = args.get_int("mesh-max-hops", mesh.max_hops);
  if (args.bad) return false;
  if (hops < 1 || hops > 16) {
    std::fprintf(stderr, "wlmctl: --mesh-max-hops must be in [1,16] (got %d)\n", hops);
    return false;
  }
  mesh.max_hops = hops;
  const double floor = args.get_double("mesh-floor-dbm", mesh.relay_floor_dbm);
  if (args.bad) return false;
  if (floor < -100.0 || floor > -40.0) {
    std::fprintf(stderr, "wlmctl: --mesh-floor-dbm must be in [-100,-40] (got %g)\n",
                 floor);
    return false;
  }
  mesh.relay_floor_dbm = floor;
  const double drift = args.get_double("mesh-drift-db", mesh.drift_sigma_db);
  if (args.bad) return false;
  if (drift < 0.0 || drift > 10.0) {
    std::fprintf(stderr, "wlmctl: --mesh-drift-db must be in [0,10] (got %g)\n", drift);
    return false;
  }
  mesh.drift_sigma_db = drift;
  return true;
}

/// Exit codes: 0 ok, 1 runtime failure, 2 usage error, 3 campaign finished
/// degraded (shards quarantined — partial but accounted results), 4 resume
/// I/O failure (checkpoint missing/unreadable).
constexpr int kExitDegraded = 3;
constexpr int kExitResumeIo = 4;

/// Arms the process-global failpoint registry from --failpoints. Returns
/// false (with a diagnostic) on a bad spec. Failpoints are injection
/// config, not simulated state: they apply to resumed runs too and are
/// never serialized into checkpoints.
bool arm_failpoints(const Args& args) {
  const auto it = args.options.find("failpoints");
  if (it == args.options.end()) return true;
  std::string error;
  if (!failsafe::failpoints().arm_list(it->second, &error)) {
    std::fprintf(stderr, "wlmctl: bad --failpoints spec: %s\n", error.c_str());
    return false;
  }
  return true;
}

std::optional<sim::WorldConfig> world_config(const Args& args) {
  sim::WorldConfig config;
  config.fleet.epoch = deploy::Epoch::kJan2015;
  config.fleet.network_count = resolve_networks(args, 50);
  config.fleet.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  config.seed = config.fleet.seed + 1;
  config.threads = args.get_int("jobs", 1);
  if (!validate_scale(args, config.fleet.network_count, config.threads)) {
    return std::nullopt;
  }
  if (const auto it = args.options.find("faults"); it != args.options.end()) {
    std::string error;
    const auto spec = fault::FaultSpec::parse(it->second, &error);
    if (!spec) {
      std::fprintf(stderr, "wlmctl: bad --faults spec: %s\n", error.c_str());
      return std::nullopt;
    }
    config.faults = *spec;
  }
  const int retries = args.get_int("max-shard-retries", config.supervision.max_shard_retries);
  if (args.bad) return std::nullopt;
  if (retries < 0) {
    std::fprintf(stderr, "wlmctl: --max-shard-retries must be >= 0 (got %d)\n", retries);
    return std::nullopt;
  }
  config.supervision.max_shard_retries = retries;
  const double deadline = args.get_double("shard-deadline", 0.0);
  if (args.bad) return std::nullopt;
  if (deadline < 0.0) {
    std::fprintf(stderr, "wlmctl: --shard-deadline must be >= 0 sim-hours (got %g)\n",
                 deadline);
    return std::nullopt;
  }
  config.supervision.shard_deadline_hours = deadline;
  // Snapshot capture costs a per-shard serialize each phase, so it only
  // switches on when the user opts into supervision behavior explicitly.
  config.supervision.capture_checkpoints = args.options.count("failpoints") != 0 ||
                                           args.options.count("max-shard-retries") != 0 ||
                                           args.options.count("shard-deadline") != 0;
  if (!apply_mem_ceiling(args, config.mem_ceiling_mb, config.spill_dir)) {
    return std::nullopt;
  }
  if (!apply_mobility(args, config.mobility)) return std::nullopt;
  if (!apply_mesh(args, config.mesh)) return std::nullopt;
  return config;
}

/// Writes `text` to `path`; returns false (with a diagnostic) on failure.
bool write_text_file(const std::string& path, const std::string& text) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "wlmctl: cannot write %s\n", path.c_str());
    return false;
  }
  const bool ok = std::fwrite(text.data(), 1, text.size(), out) == text.size();
  std::fclose(out);
  if (!ok) std::fprintf(stderr, "wlmctl: short write to %s\n", path.c_str());
  return ok;
}

/// The simulate campaign script, as named phases. Checkpoints cut between
/// entries; a resume replays only the phases the checkpoint hasn't done.
struct SimulatePhase {
  const char* name;
  void (*run)(sim::FleetRunner&);
};

constexpr SimulatePhase kSimulatePhases[] = {
    {"usage_week", [](sim::FleetRunner& r) { r.run_usage_week(); }},
    {"mr16",
     [](sim::FleetRunner& r) {
       r.run_mr16_interference(SimTime::epoch() + Duration::hours(14));
     }},
    {"link_windows",
     [](sim::FleetRunner& r) {
       r.run_link_windows(SimTime::epoch() + Duration::hours(14));
     }},
    {"harvest", [](sim::FleetRunner& r) { r.harvest(); }},
};

int cmd_simulate(const Args& args) {
  if (!arm_failpoints(args)) return 2;
  std::string checkpoint_out;
  if (const auto it = args.options.find("checkpoint-out"); it != args.options.end()) {
    checkpoint_out = it->second;
  }
  const double checkpoint_every = args.get_double("checkpoint-every", 0.0);
  std::string halt_after;
  if (const auto it = args.options.find("halt-after-phase"); it != args.options.end()) {
    halt_after = it->second;
    const bool known =
        std::any_of(std::begin(kSimulatePhases), std::end(kSimulatePhases),
                    [&](const SimulatePhase& p) { return halt_after == p.name; });
    if (!known) {
      std::fprintf(stderr, "wlmctl: unknown phase '%s' for --halt-after-phase\n",
                   halt_after.c_str());
      return 2;
    }
  }
  if (checkpoint_every < 0.0) {
    std::fprintf(stderr, "wlmctl: --checkpoint-every must be >= 0 sim-hours\n");
    return 2;
  }
  if ((checkpoint_every > 0.0 || !halt_after.empty()) && checkpoint_out.empty()) {
    std::fprintf(stderr,
                 "wlmctl: --checkpoint-every/--halt-after-phase need --checkpoint-out\n");
    return 2;
  }

  std::unique_ptr<sim::FleetRunner> runner;
  ckpt::CampaignProgress progress;
  progress.label = "simulate";
  if (const auto it = args.options.find("resume-from"); it != args.options.end()) {
    // The checkpoint carries the full scenario; only --jobs applies here
    // (parallelism is not simulated state).
    const int jobs = args.get_int("jobs", 1);
    if (args.bad || jobs < 1) {
      std::fprintf(stderr, "wlmctl: --jobs must be >= 1 (got %d)\n", jobs);
      return 2;
    }
    ckpt::RestoredCampaign restored;
    if (const auto err = ckpt::restore_campaign_file(it->second, jobs, restored)) {
      std::fprintf(stderr, "wlmctl: cannot resume from %s: %s (%s)\n",
                   it->second.c_str(), err.detail.c_str(), status_name(err.status));
      // An unreadable/missing checkpoint file is an I/O problem the caller
      // can act on (wrong path, lost volume); a malformed one is a bug.
      return err.status == ckpt::Status::kIo ? kExitResumeIo : 1;
    }
    runner = std::move(restored.runner);
    progress = std::move(restored.progress);
    std::fprintf(stderr, "wlmctl: resumed '%s' at %.0f sim-hours (%zu phases done)\n",
                 progress.label.c_str(), progress.sim_hours,
                 progress.phases_done.size());
  } else {
    const auto config = world_config(args);
    if (!config) return 2;
    runner = std::make_unique<sim::FleetRunner>(*config);
  }

  // Everything on stdout below is simulated output: byte-identical for any
  // --jobs, and identical between a resumed and an uninterrupted run.
  std::printf("fleet: %d APs, %zu clients, %zu mesh links\n",
              runner->fleet().total_aps(), runner->client_count(),
              runner->mesh_links().size());

  const auto is_done = [&](const char* name) {
    return std::find(progress.phases_done.begin(), progress.phases_done.end(), name) !=
           progress.phases_done.end();
  };
  double last_ckpt_hours = progress.sim_hours;
  // With --checkpoint-every H, write when >= H sim-hours elapsed since the
  // last cut; without it, write after every phase. `force` covers the
  // --halt-after-phase cut, which must always land on disk.
  const auto checkpoint_now = [&](const char* phase, bool force) {
    if (checkpoint_out.empty()) return true;
    const double elapsed = runner->campaign_sim_hours() - last_ckpt_hours;
    if (!force && checkpoint_every > 0.0 && elapsed < checkpoint_every) return true;
    progress.sim_hours = runner->campaign_sim_hours();
    if (const auto err = ckpt::save_campaign_file(checkpoint_out, *runner, progress)) {
      std::fprintf(stderr, "wlmctl: cannot checkpoint to %s: %s (%s)\n",
                   checkpoint_out.c_str(), err.detail.c_str(), status_name(err.status));
      return false;
    }
    last_ckpt_hours = runner->campaign_sim_hours();
    std::fprintf(stderr, "wlmctl: checkpoint written to %s after phase '%s'\n",
                 checkpoint_out.c_str(), phase);
    return true;
  };

  for (const auto& phase : kSimulatePhases) {
    if (!is_done(phase.name)) {
      phase.run(*runner);
      progress.phases_done.push_back(phase.name);
      if (!checkpoint_now(phase.name, /*force=*/halt_after == phase.name)) return 1;
    }
    if (halt_after == phase.name) {
      std::fprintf(stderr, "wlmctl: halted after phase '%s'\n", phase.name);
      return 0;
    }
  }

  std::printf("store: %zu reports; flows classified: %llu (%.2f%% disagree with truth)\n",
              runner->reports().report_count(),
              static_cast<unsigned long long>(runner->flows_classified()),
              100.0 * static_cast<double>(runner->flows_misclassified()) /
                  std::max<std::uint64_t>(1, runner->flows_classified()));
  std::printf("mean telemetry per AP: %.1f kB framed\n",
              runner->mean_report_bytes_per_ap() / 1e3);
  const bool degraded = runner->supervisor().degraded();
  if (runner->config().faults.enabled() || degraded) {
    std::printf("%s\n", runner->loss_ledger().render().c_str());
  }
  if (degraded) {
    // The campaign finished, but with quarantined shards: report exactly
    // which networks are missing and exit distinctly so scripts can tell
    // "partial but accounted" from success and from failure.
    std::printf("%s\n", runner->supervisor().manifest().render().c_str());
  }
  if (const auto it = args.options.find("metrics-out"); it != args.options.end()) {
    if (!write_text_file(it->second, telemetry::to_json_lines(runner->metrics()))) {
      return 1;
    }
  }
  return degraded ? kExitDegraded : 0;
}

using Scale = analysis::ScenarioScale;

/// Prints a render to stdout; returns exit code 0.
int print(const std::string& text) {
  std::fputs(text.c_str(), stdout);
  return 0;
}

/// Runs `study` at the scale and prints its `render`.
template <auto study, auto render>
int show(const Scale& scale) {
  return print(render(study(scale)));
}

/// One `wlmctl report` artifact: its name, the scenario group it reads
/// (null for none), and the study and render that print it.
struct Artifact {
  const char* name;
  const OptionList* scenario;
  int (*run)(const Scale&);
};

const std::vector<Artifact>& artifacts() {
  using namespace analysis;
  // The mobility studies force mobility on and the mesh studies force a
  // nonzero mesh fraction; their groups' options shape the walk or backhaul.
  static const std::vector<Artifact> table = {
      {"table2", nullptr, [](const Scale& s) { return print(render_table2(s)); }},
      {"table3", nullptr, show<run_usage_study, render_table3>},
      {"table4", nullptr, show<run_snapshot_study, render_table4>},
      {"table5", nullptr, [](const Scale& s) { return print(render_table5(run_usage_study(s))); }},
      {"table6", nullptr, show<run_usage_study, render_table6>},
      {"table7", nullptr, show<run_neighbor_study, render_table7>},
      {"fig1", nullptr, show<run_snapshot_study, render_fig1>},
      {"fig2", nullptr, show<run_neighbor_study, render_fig2>},
      {"fig3", nullptr, show<run_link_study, render_fig3>},
      {"fig4", nullptr, show<run_link_study, render_fig4>},
      {"fig5", nullptr, show<run_link_study, render_fig5>},
      {"fig6", nullptr, show<run_utilization_study, render_fig6>},
      {"fig7", nullptr, show<run_utilization_study, render_fig7>},
      {"fig8", nullptr, show<run_utilization_study, render_fig8>},
      {"fig9", nullptr, show<run_utilization_study, render_fig9>},
      {"fig10", nullptr, show<run_utilization_study, render_fig10>},
      {"fig11", nullptr,
       [](const Scale& s) { return print(render_fig11(run_spectrum_study(s.seed))); }},
      {"scorecard", nullptr,
       [](const Scale& s) {
         const auto card = run_scorecard(s);
         print(render_scorecard(card));
         return card.all_passed() ? 0 : 1;
       }},
      {"overhead", nullptr,
       [](const Scale& s) {
         print(render_wire_overhead_full(run_wire_overhead_study(s)));
         return print(render_wire_overhead(run_usage_study(s)));
       }},
      {"roamcdf", &kMobilityOptions, show<run_mobility_study, render_roam_cdf>},
      {"apvisits", &kMobilityOptions, show<run_mobility_study, render_ap_visits>},
      {"sticky", &kMobilityOptions, show<run_mobility_study, render_sticky_clients>},
      {"meshdelivery", &kMeshOptions, show<run_mesh_study, render_mesh_delivery>},
      {"meshdelay", &kMeshOptions, show<run_mesh_study, render_mesh_delay>},
  };
  return table;
}

/// The names of the artifacts that take `scenario`, as lines indented 14
/// columns and at most 80 wide.
std::string artifact_lines(const OptionList* scenario) {
  std::string lines;
  std::string line;
  for (const auto& artifact : artifacts()) {
    if (artifact.scenario != scenario) continue;
    if (line.size() + 1 + std::strlen(artifact.name) > 67) {
      lines += std::string(13, ' ') + line + '\n';
      line.clear();
    }
    line += ' ' + std::string(artifact.name);
  }
  return lines + std::string(13, ' ') + line + '\n';
}

/// The analysis scale the fleet and scenario options ask for; nullopt,
/// after a diagnostic, on a bad value.
std::optional<Scale> analysis_scale(const Args& args) {
  Scale scale;
  scale.networks = resolve_networks(args, 150);
  scale.seed = static_cast<std::uint64_t>(args.get_int("seed", 2015));
  scale.threads = args.get_int("jobs", 1);
  const bool ok = validate_scale(args, scale.networks, scale.threads) &&
                  apply_mem_ceiling(args, scale.mem_ceiling_mb, scale.spill_dir) &&
                  apply_mobility(args, scale.mobility) && apply_mesh(args, scale.mesh);
  return ok ? std::optional(scale) : std::nullopt;
}

int cmd_report(const Args& args) {
  const std::string what = args.positional.empty() ? "" : args.positional[0];
  const auto& table = artifacts();
  const auto artifact = std::find_if(table.begin(), table.end(),
                                     [&](const Artifact& a) { return what == a.name; });
  if (artifact == table.end()) {
    std::fprintf(stderr, "wlmctl: report expects an artifact, got '%s'; the artifacts are:\n%s%s%s",
                 what.c_str(), artifact_lines(nullptr).c_str(),
                 artifact_lines(&kMobilityOptions).c_str(), artifact_lines(&kMeshOptions).c_str());
    return 2;
  }
  // Of the scenario options parse_args admitted, take only this artifact's.
  const OptionList* scenario = artifact->scenario;
  for (const auto& [name, value] : args.options) {
    if (!contains(kFleetOptions, name) && !(scenario != nullptr && contains(*scenario, name))) {
      std::fprintf(stderr, "wlmctl: report %s does not take --%s\n", what.c_str(), name.c_str());
      return 2;
    }
  }
  const auto scale = analysis_scale(args);
  return scale ? artifact->run(*scale) : 2;
}

int cmd_health(const Args& args) {
  if (!arm_failpoints(args)) return 2;
  auto config = world_config(args);
  if (!config) return 2;
  if (!config->faults.enabled()) {
    // No scenario given: run a representative mixed-fault week so every
    // triage signal has something to find.
    config->faults.outage_rate_per_week = 2.0;
    config->faults.outage_mean_hours = 18.0;
    config->faults.reboot_rate_per_week = 1.0;
    config->faults.corrupt_probability = 0.01;
  }
  sim::FleetRunner runner(*config);
  runner.run_usage_week();
  // Week-end view: APs still inside an outage stay offline — exactly the
  // state a fleet operator's dashboard would be alerting on.
  runner.harvest(sim::HarvestMode::kWeekEnd);
  backend::HealthPolicy policy;
  policy.expected_interval = Duration::days(1);
  const backend::HealthMonitor monitor(policy);
  auto findings = monitor.analyze(runner.reports(), SimTime::epoch() + Duration::days(7));
  for (const auto& ap : runner.aps()) {
    const auto t = monitor.analyze_tunnel(ap.tunnel());
    findings.insert(findings.end(), t.begin(), t.end());
  }
  std::fputs(backend::HealthMonitor::render(findings).c_str(), stdout);

  // Poller-side view, from the merged telemetry registry: which tunnels the
  // retry policy is currently punishing. The registry only carries per-AP
  // backoff gauges for tunnels that misbehaved at least once.
  std::printf("\npoller backoff state (tunnels that ever misbehaved):\n");
  const auto& metrics = runner.metrics();
  bool any_backoff = false;
  metrics.for_each_gauge([&](const telemetry::MetricKey& key, const telemetry::Gauge& g) {
    if (key.name != "wlm_poller_backoff_level") return;
    any_backoff = true;
    const bool quarantined =
        metrics.gauge_value("wlm_poller_quarantined", key.entity) > 0.0;
    const auto corrupt =
        metrics.counter_value("wlm_poller_tunnel_corrupt_total", key.entity);
    std::printf("  ap %llu: backoff level %.0f%s, %llu corrupt frames seen\n",
                static_cast<unsigned long long>(key.entity), g.value(),
                quarantined ? " [QUARANTINED]" : "",
                static_cast<unsigned long long>(corrupt));
  });
  if (!any_backoff) std::printf("  (none — every tunnel polled clean all week)\n");

  std::printf("\n%s\n", runner.loss_ledger().render().c_str());
  if (runner.supervisor().degraded()) {
    std::printf("%s\n", runner.supervisor().manifest().render().c_str());
    return kExitDegraded;
  }
  return 0;
}

int cmd_stats(const Args& args) {
  if (!arm_failpoints(args)) return 2;
  const auto config = world_config(args);
  if (!config) return 2;
  sim::FleetRunner runner(*config);
  runner.run_usage_week();
  runner.run_mr16_interference(SimTime::epoch() + Duration::hours(14));
  runner.harvest(sim::HarvestMode::kFinal);

  // The snapshot itself goes to stdout; everything wall-clock or diagnostic
  // goes elsewhere, so stdout is byte-identical for any --jobs value.
  const auto& metrics = runner.metrics();
  std::fputs(telemetry::to_prometheus(metrics).c_str(), stdout);

  if (const auto it = args.options.find("metrics-out"); it != args.options.end()) {
    if (!write_text_file(it->second, telemetry::to_json_lines(metrics))) return 1;
  }
  if (const auto it = args.options.find("trace-out"); it != args.options.end()) {
    if (!write_text_file(it->second, telemetry::spans_to_json_lines(runner.trace()))) {
      return 1;
    }
  }

  // Reconcile the registry against the independently derived loss ledger:
  // the gauges published at harvest AND the live counters incremented on
  // the hot paths must both agree with it, or the instrumentation lies.
  const auto ledger = runner.loss_ledger();
  bool ok = true;
  const auto check = [&](const char* name, double have, std::uint64_t want) {
    if (have == static_cast<double>(want)) return;
    std::fprintf(stderr, "wlmctl stats: %s is %.0f but the ledger says %llu\n", name,
                 have, static_cast<unsigned long long>(want));
    ok = false;
  };
  check("wlm_ledger_generated", metrics.gauge_value("wlm_ledger_generated"),
        ledger.generated);
  check("wlm_ledger_delivered", metrics.gauge_value("wlm_ledger_delivered"),
        ledger.delivered);
  check("wlm_ledger_shed", metrics.gauge_value("wlm_ledger_shed"), ledger.shed);
  check("wlm_ledger_lost_reboot", metrics.gauge_value("wlm_ledger_lost_reboot"),
        ledger.lost_reboot);
  check("wlm_ledger_lost_corruption", metrics.gauge_value("wlm_ledger_lost_corruption"),
        ledger.lost_corruption);
  check("wlm_ledger_in_flight", metrics.gauge_value("wlm_ledger_in_flight"),
        ledger.in_flight);
  check("wlm_ledger_lost_supervision",
        metrics.gauge_value("wlm_ledger_lost_supervision"), ledger.lost_supervision);
  if (ledger.lost_mesh_partition != 0 ||
      metrics.gauge_value("wlm_ledger_lost_mesh_partition") != 0.0) {
    check("wlm_ledger_lost_mesh_partition",
          metrics.gauge_value("wlm_ledger_lost_mesh_partition"),
          ledger.lost_mesh_partition);
  }
  const bool degraded = runner.supervisor().degraded();
  if (!degraded) {
    // These hot-path counters reflect work as it happened; a quarantined
    // shard's registry is excluded from the merge while the ledger
    // reattributes its work to lost_supervision, so the comparison is only
    // meaningful for fully harvested fleets. Partition-stranded mesh
    // reports never reach the enqueue counter (they drop before the
    // tunnel), so the ledger's generated total exceeds it by exactly that
    // bucket.
    check("wlm_sim_reports_enqueued_total",
          static_cast<double>(metrics.counter_value("wlm_sim_reports_enqueued_total")),
          ledger.generated - ledger.lost_mesh_partition);
    check("wlm_poller_reports_stored_total",
          static_cast<double>(metrics.counter_value("wlm_poller_reports_stored_total")),
          ledger.delivered);
  } else {
    std::fprintf(stderr,
                 "wlmctl stats: degraded run — hot-path counter checks skipped\n");
  }
  if (!ok) {
    std::fprintf(stderr, "wlmctl stats: telemetry does NOT reconcile with the ledger\n");
    return 1;
  }
  std::fprintf(stderr,
               "wlmctl stats: telemetry reconciles with the loss ledger "
               "(generated=%llu delivered=%llu)\n",
               static_cast<unsigned long long>(ledger.generated),
               static_cast<unsigned long long>(ledger.delivered));
  return degraded ? kExitDegraded : 0;
}

int cmd_pcap(const Args& args) {
  if (args.positional.empty()) {
    std::fprintf(stderr, "usage: wlmctl pcap <path> [--flows N] [--seed S]\n");
    return 2;
  }
  const int flows = args.get_int("flows", 200);
  const int pcap_seed = args.get_int("seed", 9);
  if (args.bad) return 2;
  if (flows < 1) {
    std::fprintf(stderr, "wlmctl: --flows must be >= 1 (got %d)\n", flows);
    return 2;
  }
  Rng rng(static_cast<std::uint64_t>(pcap_seed));
  const deploy::PopulationModel population(deploy::Epoch::kJan2015);
  traffic::WorkloadModel workload(deploy::Epoch::kJan2015, rng.fork());
  traffic::PcapWriter writer;
  traffic::DeviceWeek week;
  SimTime t;
  int written = 0;
  for (std::uint32_t c = 1; written < flows; ++c) {
    const auto device = population.sample(ClientId{c}, rng);
    workload.generate_week(device, week);
    for (const auto& flow : week.flows) {
      if (written >= flows) break;
      traffic::PacketEndpoints endpoints;
      endpoints.src_mac = device.mac;
      endpoints.dst_mac = MacAddress::from_u64(0x88154E000001ULL);
      writer.add_flow(t, flow, endpoints);
      t += Duration::millis(250);
      ++written;
    }
  }
  if (!writer.write_file(args.positional[0])) {
    std::fprintf(stderr, "cannot write %s\n", args.positional[0].c_str());
    return 1;
  }
  std::printf("wrote %zu packets (%zu bytes) from %d flows to %s\n",
              writer.packet_count(), writer.bytes().size(), written,
              args.positional[0].c_str());
  return 0;
}

int cmd_export(const Args& args) {
  if (args.positional.empty()) {
    std::fprintf(stderr, "usage: wlmctl export <dir> [--networks N] [--seed S]\n");
    return 2;
  }
  const auto scale = analysis_scale(args);
  if (!scale) return 2;
  const std::string& dir = args.positional[0];

  std::vector<analysis::CsvDoc> docs;
  docs.push_back(analysis::export_fig1(analysis::run_snapshot_study(*scale)));
  {
    const auto link = analysis::run_link_study(*scale);
    docs.push_back(analysis::export_fig3(link));
  }
  {
    const auto util = analysis::run_utilization_study(*scale);
    docs.push_back(analysis::export_fig6(util));
    docs.push_back(analysis::export_fig78(util));
    docs.push_back(analysis::export_fig9(util));
  }
  docs.push_back(analysis::export_table7(analysis::run_neighbor_study(*scale)));
  docs.push_back(analysis::export_fig11(analysis::run_spectrum_study(scale->seed)));
  docs.push_back(analysis::export_scorecard_data(analysis::run_usage_study(*scale)));

  for (const auto& doc : docs) {
    if (!analysis::write_csv(doc, dir)) {
      std::fprintf(stderr, "cannot write %s/%s.csv\n", dir.c_str(), doc.name.c_str());
      return 1;
    }
    std::printf("wrote %s/%s.csv (%zu rows)\n", dir.c_str(), doc.name.c_str(),
                doc.rows.size() - 1);
  }
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: wlmctl <command> [options]\n"
               "  simulate  [--networks N] [--scale paper] [--seed S]\n"
               "            [--faults SPEC] [--jobs N]\n"
               "            [--mem-ceiling-mb MB] [--spill-dir DIR]\n"
               "            [--checkpoint-out FILE] [--checkpoint-every SIM_HOURS]\n"
               "            [--resume-from FILE] [--halt-after-phase PHASE]\n"
               "            [--failpoints SPEC] [--max-shard-retries N]\n"
               "            [--shard-deadline SIM_HOURS] [--metrics-out FILE]\n"
               "            [--mobility on|off] [--roam-prob P] [--mobility-speed M]\n"
               "            [--mobility-steps N]\n"
               "            [--mesh-fraction F] [--mesh-max-hops N] [--mesh-floor-dbm D]\n"
               "            [--mesh-drift-db D]\n"
               "            phases: usage_week, mr16, link_windows, harvest. A resume\n"
               "            replays only unfinished phases; its output is byte-identical\n"
               "            to an uninterrupted run at any --jobs\n"
               "  report    <artifact> [--networks N] [--scale paper] [--seed S] [--jobs N]\n"
               "            [--mem-ceiling-mb MB] [--spill-dir DIR]\n"
               "%s"
               "            mobility artifacts also take [--mobility on|off] [--roam-prob P]\n"
               "            [--mobility-speed M] [--mobility-steps N]:\n%s"
               "            mesh artifacts also take [--mesh-fraction F] [--mesh-max-hops N]\n"
               "            [--mesh-floor-dbm D] [--mesh-drift-db D]:\n%s"
               "            scorecard checks every paper claim; it exits 1 if one fails\n"
               "  health    [--networks N] [--scale paper] [--seed S]\n"
               "            [--faults SPEC] [--jobs N]\n"
               "            [--mem-ceiling-mb MB] [--spill-dir DIR]\n"
               "            [--failpoints SPEC] [--max-shard-retries N]\n"
               "            [--shard-deadline SIM_HOURS]\n"
               "            [--mobility on|off] [--roam-prob P] [--mobility-speed M]\n"
               "            [--mobility-steps N]\n"
               "            [--mesh-fraction F] [--mesh-max-hops N] [--mesh-floor-dbm D]\n"
               "            [--mesh-drift-db D]\n"
               "            run a faulted week and triage every AP and tunnel\n"
               "  pcap      <path> [--flows N] [--seed S]\n"
               "  export    <dir> [--networks N] [--scale paper] [--seed S] [--jobs N]\n"
               "            [--mem-ceiling-mb MB] [--spill-dir DIR]  write CSV data series\n"
               "  stats     [--networks N] [--scale paper] [--seed S]\n"
               "            [--faults SPEC] [--jobs N]\n"
               "            [--mem-ceiling-mb MB] [--spill-dir DIR]\n"
               "            [--failpoints SPEC] [--max-shard-retries N]\n"
               "            [--shard-deadline SIM_HOURS]\n"
               "            [--metrics-out FILE] [--trace-out FILE]\n"
               "            [--mobility on|off] [--roam-prob P] [--mobility-speed M]\n"
               "            [--mobility-steps N]\n"
               "            [--mesh-fraction F] [--mesh-max-hops N] [--mesh-floor-dbm D]\n"
               "            [--mesh-drift-db D]\n"
               "            run a week campaign, print the Prometheus-style metrics\n"
               "            snapshot, and verify it reconciles with the loss ledger\n"
               "\n"
               "--scale paper presets --networks to the paper's audited full fleet\n"
               "(20,667 networks, Table 2); an explicit --networks overrides it.\n"
               "--mem-ceiling-mb M streams the harvest: shards seal columnar tsdb\n"
               "segments at phase boundaries and spill to --spill-dir when resident\n"
               "segment bytes press M/4. Output is byte-identical for any fixed\n"
               "ceiling, spilled or not (0 = classic hold-until-final harvest).\n"
               "\n"
               "--mesh-fraction F makes that fraction of each network's APs WAN-less:\n"
               "they relay report batches over multi-hop paths to gateway APs (AP 0 is\n"
               "always a gateway). Routes recompute at campaign phase boundaries as\n"
               "shadowing drifts (--mesh-drift-db); APs beyond --mesh-max-hops of every\n"
               "gateway are partitioned and their reports land in lost_mesh_partition.\n"
               "A gateway outage strands its whole relay subtree the same way.\n"
               "\n"
               "--faults SPEC is comma-separated key=value pairs; keys: flap, outage_rate,\n"
               "outage_hours, reboot_rate, fw_wave, fw_hour, corrupt, oom_threshold,\n"
               "skyscraper, skyscraper_neighbors, queue. Example:\n"
               "  wlmctl health --faults \"outage_rate=2,outage_hours=36,corrupt=0.02\"\n"
               "\n"
               "--failpoints SPEC arms deterministic fault-injection sites: clauses\n"
               "separated by ';', each comma-separated key=value pairs. Keys: site\n"
               "(required: ckpt.save.write, poller.poll, shard.step, harvest.merge,\n"
               "shard.alloc), net (entity id; default all), action (throw|error|delay|oom),\n"
               "after (skip first N hits), times (fire at most N; 0=forever), hours (delay\n"
               "magnitude), prob (firing probability), seed. Example:\n"
               "  wlmctl simulate --failpoints \"site=shard.step,net=3,action=throw,times=1\"\n"
               "\n"
               "A command given an option it does not take exits 2.\n"
               "\n"
               "exit codes: 0 ok; 1 runtime failure; 2 usage error; 3 campaign finished\n"
               "degraded (shards quarantined, output partial but accounted); 4 resume\n"
               "checkpoint missing or unreadable\n",
               artifact_lines(nullptr).c_str(), artifact_lines(&kMobilityOptions).c_str(),
               artifact_lines(&kMeshOptions).c_str());
  return 2;
}

const std::vector<Command>& commands() {
  static const std::vector<Command> table = {
      {"simulate", cmd_simulate, wlmctl::options_of("simulate")},
      {"report", cmd_report, wlmctl::options_of("report")},
      {"health", cmd_health, wlmctl::options_of("health")},
      {"pcap", cmd_pcap, wlmctl::options_of("pcap")},
      {"export", cmd_export, wlmctl::options_of("export")},
      {"stats", cmd_stats, wlmctl::options_of("stats")},
  };
  return table;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string_view name = argv[1];
  const auto& table = commands();
  const auto command = std::find_if(table.begin(), table.end(),
                                    [&](const Command& c) { return name == c.name; });
  if (command == table.end()) return usage();
  const auto args = parse_args(argc, argv, *command);
  return args ? command->run(*args) : 2;
}

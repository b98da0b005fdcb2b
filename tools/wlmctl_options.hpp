// The options each wlmctl command reads. wlmctl parses against this table,
// and cli_tests checks that the usage text names every option here under
// the command that takes it.
#pragma once

#include <algorithm>
#include <initializer_list>
#include <string_view>
#include <vector>

namespace wlm::wlmctl {

using OptionList = std::vector<std::string_view>;

/// Fleet size, parallelism and streaming harvest, which every report
/// artifact reads; and the scenario packs, which only their studies read.
inline const OptionList kFleetOptions = {"networks", "scale",          "seed",
                                         "jobs",     "mem-ceiling-mb", "spill-dir"};
inline const OptionList kMobilityOptions = {"mobility", "roam-prob", "mobility-speed",
                                            "mobility-steps"};
inline const OptionList kMeshOptions = {"mesh-fraction", "mesh-max-hops", "mesh-floor-dbm",
                                        "mesh-drift-db"};

/// Concatenates option lists.
inline OptionList join(std::initializer_list<OptionList> groups) {
  OptionList all;
  for (const auto& group : groups) all.insert(all.end(), group.begin(), group.end());
  return all;
}

struct CommandOptions {
  std::string_view command;
  OptionList options;
};

/// Every command, in usage order, with the options it reads.
inline const std::vector<CommandOptions>& command_options() {
  // Fleet size, parallelism and streaming harvest; the scenario packs;
  // faults and supervision.
  static const std::vector<CommandOptions> table = [] {
    const OptionList scenario = join({kMobilityOptions, kMeshOptions});
    const OptionList faults = {"faults", "failpoints", "max-shard-retries", "shard-deadline"};
    return std::vector<CommandOptions>{
        {"simulate", join({kFleetOptions, scenario, faults,
                           {"checkpoint-out", "checkpoint-every", "resume-from",
                            "halt-after-phase", "metrics-out"}})},
        {"report", join({kFleetOptions, scenario})},
        {"health", join({kFleetOptions, scenario, faults})},
        {"pcap", {"flows", "seed"}},
        {"export", kFleetOptions},
        {"stats", join({kFleetOptions, scenario, faults, {"metrics-out", "trace-out"}})},
    };
  }();
  return table;
}

/// The options `command` reads; none for a command the table lacks.
inline const OptionList& options_of(std::string_view command) {
  static const OptionList none;
  const auto& table = command_options();
  const auto it = std::find_if(table.begin(), table.end(), [&](const CommandOptions& c) {
    return c.command == command;
  });
  return it == table.end() ? none : it->options;
}

}  // namespace wlm::wlmctl

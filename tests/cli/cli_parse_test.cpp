// Strict flag parsing: the cli::parse_* whitelist contract, plus a
// table-driven rejection sweep over EVERY numeric wlmctl flag. The latter
// runs the real binary: the regression this guards was not in any parser
// but in a command forgetting to check one flag's parse result, so only an
// end-to-end exit-code check holds the line as flags accrete. The same
// binary's `report` artifact table is pinned against tests/golden/.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <sys/wait.h>

#include "cli/parse.hpp"
#include "wlmctl_options.hpp"

namespace wlm {
namespace {

TEST(CliParse, AcceptsPlainIntegers) {
  EXPECT_EQ(cli::parse_int("0"), 0);
  EXPECT_EQ(cli::parse_int("42"), 42);
  EXPECT_EQ(cli::parse_int("-7"), -7);
  EXPECT_EQ(cli::parse_int("+13"), 13);
  EXPECT_EQ(cli::parse_int("9223372036854775807"), INT64_MAX);
  EXPECT_EQ(cli::parse_int("-9223372036854775808"), INT64_MIN);
}

TEST(CliParse, RejectsNonIntegers) {
  for (const char* bad :
       {"", "+", "-", " 1", "1 ", "1.5", "1e3", "0x10", "abc", "12abc", "--3",
        "nan", "inf", "9223372036854775808", "-9223372036854775809",
        "99999999999999999999999999"}) {
    EXPECT_FALSE(cli::parse_int(bad).has_value()) << "'" << bad << "'";
  }
}

TEST(CliParse, HonorsCallerRange) {
  EXPECT_TRUE(cli::parse_int("100", 0, 100).has_value());
  EXPECT_FALSE(cli::parse_int("101", 0, 100).has_value());
  EXPECT_FALSE(cli::parse_int("-1", 0, 100).has_value());
}

TEST(CliParse, AcceptsPlainDecimals) {
  EXPECT_EQ(cli::parse_double("0"), 0.0);
  EXPECT_EQ(cli::parse_double("0.5"), 0.5);
  EXPECT_EQ(cli::parse_double("-2.25"), -2.25);
  EXPECT_EQ(cli::parse_double("+3."), 3.0);
  EXPECT_EQ(cli::parse_double(".5"), 0.5);
  EXPECT_EQ(cli::parse_double("1e3"), 1000.0);
  EXPECT_EQ(cli::parse_double("2.5E-2"), 0.025);
}

TEST(CliParse, RejectsEveryNonFiniteSpelling) {
  for (const char* bad : {"nan", "NaN", "NAN", "nan(123)", "inf", "INF",
                          "Infinity", "-inf", "+inf", "-nan"}) {
    EXPECT_FALSE(cli::parse_double(bad).has_value()) << "'" << bad << "'";
  }
}

TEST(CliParse, RejectsJunkHexAndOverflow) {
  for (const char* bad : {"", ".", "+", "-", "e3", "1e", "1e+", " 1.0", "1.0 ",
                          "1.0x", "0x1p4", "0x10", "1.2.3", "1e999", "-1e999"}) {
    EXPECT_FALSE(cli::parse_double(bad).has_value()) << "'" << bad << "'";
  }
  // Underflow-to-zero is legal input, not an error.
  EXPECT_EQ(cli::parse_double("1e-999"), 0.0);
}

#ifdef WLMCTL_BIN

/// Runs wlmctl with one poisoned flag; returns its exit code.
int wlmctl_exit(const std::string& cmdline) {
  const std::string full = std::string(WLMCTL_BIN) + " " + cmdline +
                           " >/dev/null 2>/dev/null";
  const int status = std::system(full.c_str());
  if (status == -1 || !WIFEXITED(status)) return -1;
  return WEXITSTATUS(status);
}

TEST(WlmctlFlagValidation, EveryNumericFlagRejectsHostileValues) {
  // One row per numeric flag, paired with the cheapest subcommand that
  // reads it. A hostile value must exit 2 (usage error) — never run the
  // scenario with a silently substituted fallback. This is the sweep that
  // caught the post-PR-7 flags (--mem-ceiling-mb, --roam-prob,
  // --mobility-speed, ...) accepting "nan"/"inf" through strtod.
  struct Row {
    const char* command;  // subcommand plus any required scaffolding
    const char* flag;
  };
  const Row rows[] = {
      {"simulate", "--networks"},
      {"simulate", "--seed"},
      {"simulate", "--jobs"},
      {"simulate", "--mem-ceiling-mb"},
      {"simulate", "--max-shard-retries"},
      {"simulate", "--shard-deadline"},
      {"simulate --checkpoint-out /tmp/x.wlmckpt", "--checkpoint-every"},
      {"simulate", "--roam-prob"},
      {"simulate", "--mobility-speed"},
      {"simulate", "--mobility-steps"},
      {"simulate", "--mesh-fraction"},
      {"simulate", "--mesh-max-hops"},
      {"simulate", "--mesh-floor-dbm"},
      {"simulate", "--mesh-drift-db"},
      {"report table2", "--networks"},
      {"report table2", "--seed"},
      {"report table2", "--jobs"},
      {"report table2", "--mem-ceiling-mb"},
      {"report meshdelivery", "--mesh-fraction"},
      {"health", "--networks"},
      {"stats", "--seed"},
      {"pcap /tmp/x.pcap", "--flows"},
      {"pcap /tmp/x.pcap", "--seed"},
      {"export /tmp", "--networks"},
  };
  const char* const poisons[] = {"nan",   "iNf",  "infinity", "1e999", "abc",
                                 "12abc", "0x10", "",         "1.2.3"};
  for (const Row& row : rows) {
    for (const char* poison : poisons) {
      const std::string command = row.command;
      std::string cmd = command + " " + row.flag + " '" + poison + "'";
      // Keep accidental acceptance cheap — unless --networks is the flag
      // under test (duplicate options overwrite, which would heal it) or
      // the command takes no --networks (it would be rejected as unknown,
      // hiding the flag under test).
      const bool sized = command.rfind("pcap", 0) != 0;
      if (sized && std::string(row.flag) != "--networks") cmd += " --networks 2";
      EXPECT_EQ(wlmctl_exit(cmd), 2) << "wlmctl " << cmd;
    }
  }
}

TEST(WlmctlFlagValidation, OutOfRangeMeshKnobsAreUsageErrors) {
  struct Row {
    const char* flag;
    const char* value;
  };
  const Row rows[] = {
      {"--mesh-fraction", "-0.1"}, {"--mesh-fraction", "0.96"},
      {"--mesh-max-hops", "0"},    {"--mesh-max-hops", "17"},
      {"--mesh-floor-dbm", "-101"}, {"--mesh-floor-dbm", "-39"},
      {"--mesh-drift-db", "-1"},   {"--mesh-drift-db", "10.5"},
  };
  for (const Row& row : rows) {
    const std::string cmd =
        std::string("simulate --networks 2 ") + row.flag + " " + row.value;
    EXPECT_EQ(wlmctl_exit(cmd), 2) << "wlmctl " << cmd;
  }
}

/// Runs a shell command; returns its exit code and what it printed to stdout.
std::pair<int, std::string> run_capture(const std::string& shell) {
  std::FILE* pipe = popen(shell.c_str(), "r");
  if (pipe == nullptr) return {-1, ""};
  std::string out;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, pipe)) > 0) out.append(buf, n);
  const int status = pclose(pipe);
  return {WIFEXITED(status) ? WEXITSTATUS(status) : -1, out};
}

/// Runs wlmctl; returns its exit code and what it printed to stderr.
std::pair<int, std::string> wlmctl_run(const std::string& cmdline) {
  return run_capture(std::string(WLMCTL_BIN) + " " + cmdline + " 2>&1 >/dev/null");
}

TEST(WlmctlFlagValidation, UnknownOptionsAreUsageErrors) {
  // A misspelled flag must fail, not silently run the default scenario.
  const auto [code, err] = wlmctl_run("simulate --networks 2 --jbos 4");
  EXPECT_EQ(code, 2);
  EXPECT_EQ(err, "wlmctl: unknown option --jbos for simulate\n");
  // A real option given to a command that does not read it, and a final
  // option that lost its value.
  EXPECT_EQ(wlmctl_exit("pcap /tmp/x.pcap --networks 2"), 2);
  EXPECT_EQ(wlmctl_exit("simulate --networks 2 --jobs"), 2);
  // The retired spectrum command is unknown; report fig11 renders Figure 11.
  EXPECT_EQ(wlmctl_exit("spectrum --seed 3"), 2);
  // Controls: known options still run, and the fault spec carries flaps.
  EXPECT_EQ(wlmctl_exit("report fig11 --seed 3"), 0);
  EXPECT_EQ(wlmctl_exit("simulate --networks 2 --jobs 2 --faults flap=0.3"), 0);
}

TEST(WlmctlFlagValidation, RetiredFlagsAreUnknownOptions) {
  // Each retired flag on every subcommand that used to take it: --flap
  // (now --faults flap=F) and the reference-mode selectors.
  const auto expect_unknown = [](const std::string& command, const std::string& flag) {
    const auto [code, err] = wlmctl_run(command + " --networks 2 --" + flag + " 0");
    EXPECT_EQ(code, 2) << command << " --" << flag;
    EXPECT_EQ(err, "wlmctl: unknown option --" + flag + " for " +
                       command.substr(0, command.find(' ')) + "\n");
  };
  for (const char* command : {"simulate", "health", "stats"}) {
    for (const char* flag : {"flap", "classifier", "per-mode"}) expect_unknown(command, flag);
  }
  expect_unknown("report table2", "per-mode");
  expect_unknown("export /tmp", "per-mode");
}

TEST(WlmctlFlagValidation, ScenarioOptionsReachOnlyTheirArtifacts) {
  // A report artifact takes the fleet options plus the one scenario group
  // it studies; any other scenario option is a usage error with a one-line
  // diagnostic, not a render of the default scenario.
  const auto expect_rejected = [](const std::string& artifact, const std::string& flags,
                                  const std::string& first) {
    const auto [code, err] = wlmctl_run("report " + artifact + " --networks 4 " + flags);
    EXPECT_EQ(code, 2) << artifact << " " << flags;
    EXPECT_EQ(err, "wlmctl: report " + artifact + " does not take --" + first + "\n");
  };
  expect_rejected("table3", "--mobility on --roam-prob 0.9 --mesh-fraction 0.5",
                  "mesh-fraction");
  expect_rejected("table3", "--mobility on", "mobility");
  expect_rejected("roamcdf", "--mesh-fraction 0.5", "mesh-fraction");
  expect_rejected("meshdelay", "--mobility on", "mobility");
  expect_rejected("scorecard", "--roam-prob 0.5", "roam-prob");
  // Controls: each scenario artifact takes its own group.
  EXPECT_EQ(wlmctl_exit("report roamcdf --networks 2 --mobility on --roam-prob 0.5"), 0);
  EXPECT_EQ(wlmctl_exit("report meshdelay --networks 2 --mesh-fraction 0.5"), 0);
  // An unknown artifact is a usage error too.
  EXPECT_EQ(wlmctl_exit("report table9 --networks 2"), 2);
}

TEST(WlmctlUsage, EveryAcceptedOptionIsInItsCommandsBlock) {
  // wlmctl with no command prints the usage text and exits 2. Each
  // command's block starts at its "  <command>" line and runs to the next
  // command's line or the first blank line; it must name every option the
  // command's parser accepts.
  const auto [code, text] = wlmctl_run("");
  EXPECT_EQ(code, 2);
  std::map<std::string, std::string> blocks;
  std::istringstream lines(text);
  std::string line;
  std::string current;
  while (std::getline(lines, line)) {
    if (line.empty()) current.clear();
    if (line.size() > 2 && line.rfind("  ", 0) == 0 && line[2] != ' ') {
      current = line.substr(2, line.find(' ', 2) - 2);
    }
    if (!current.empty()) blocks[current] += line + '\n';
  }
  for (const auto& [command, options] : wlmctl::command_options()) {
    const auto block = blocks.find(std::string(command));
    ASSERT_NE(block, blocks.end()) << "no usage block for " << command;
    for (const std::string_view option : options) {
      EXPECT_NE(block->second.find("[--" + std::string(option) + " "), std::string::npos)
          << "the usage block for " << command << " does not name --" << option;
    }
  }
}

#ifdef WLM_GOLDEN_DIR

TEST(WlmctlReport, ArtifactNamesDispatchToTheirGoldens) {
  // The golden suites pin the analysis renders called directly; this pins
  // the shipped binary's name -> study -> render table against the same
  // files, so a row wired to the wrong render fails here.
  const std::string mesh = " --mesh-fraction 0.75 --mesh-drift-db 3 --mesh-floor-dbm -70";
  const struct {
    const char* artifact;
    const char* golden;
    std::string flags;
  } rows[] = {
      {"table2", "table2", ""},
      {"table3", "table3", ""},
      {"fig3", "fig3", ""},
      {"fig6", "fig6", ""},
      {"roamcdf", "mobility_roamcdf", ""},
      {"apvisits", "mobility_apvisits", ""},
      {"sticky", "mobility_sticky", ""},
      {"meshdelivery", "meshdelivery", mesh},
      {"meshdelay", "meshdelay", mesh},
  };
  for (const auto& row : rows) {
    const std::string cmd = std::string("report ") + row.artifact +
                            " --networks 12 --seed 2015 --jobs 2" + row.flags;
    const auto [code, out] = run_capture(std::string(WLMCTL_BIN) + " " + cmd + " 2>/dev/null");
    EXPECT_EQ(code, 0) << "wlmctl " << cmd;
    std::ifstream in(std::string(WLM_GOLDEN_DIR) + "/" + row.golden + ".golden",
                     std::ios::binary);
    ASSERT_TRUE(in) << row.golden << ".golden unreadable";
    std::ostringstream golden;
    golden << in.rdbuf();
    EXPECT_TRUE(out == golden.str())
        << "wlmctl " << cmd << " differs from " << row.golden << ".golden";
  }
}

#endif  // WLM_GOLDEN_DIR

#endif  // WLMCTL_BIN

}  // namespace
}  // namespace wlm

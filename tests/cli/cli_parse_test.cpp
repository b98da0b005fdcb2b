// Strict flag parsing: the cli::parse_* whitelist contract, plus a
// table-driven rejection sweep over EVERY numeric wlmctl flag. The latter
// runs the real binary: the regression this guards was not in any parser
// but in a command forgetting to check one flag's parse result, so only an
// end-to-end exit-code check holds the line as flags accrete.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <sys/wait.h>

#include "cli/parse.hpp"

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

/// Runs wlmctl; returns its exit code and what it printed to stderr.
std::pair<int, std::string> wlmctl_run(const std::string& cmdline) {
  const std::string full = std::string(WLMCTL_BIN) + " " + cmdline + " 2>&1 >/dev/null";
  std::FILE* pipe = popen(full.c_str(), "r");
  if (pipe == nullptr) return {-1, ""};
  std::string err;
  char buf[256];
  while (std::fgets(buf, sizeof buf, pipe) != nullptr) err += buf;
  const int status = pclose(pipe);
  return {WIFEXITED(status) ? WEXITSTATUS(status) : -1, err};
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

#endif  // WLMCTL_BIN

}  // namespace
}  // namespace wlm

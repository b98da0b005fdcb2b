#include "bench_common.hpp"

#include <sys/resource.h>

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "cli/parse.hpp"

namespace wlm::bench {

std::string rate_rss_fields(std::uint64_t work_items, double seconds) {
  const double per_sec =
      seconds > 0.0 ? static_cast<double>(work_items) / seconds : 0.0;
  // Linux reports ru_maxrss in kilobytes.
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  const unsigned long long peak_rss_bytes =
      static_cast<unsigned long long>(usage.ru_maxrss) * 1024ULL;
  char fields[96];
  std::snprintf(fields, sizeof fields,
                "\"fragments_frames_per_sec\": %.1f, \"peak_rss_bytes\": %llu",
                per_sec, peak_rss_bytes);
  return fields;
}

namespace {

constexpr const char* kArgNames[] = {"", "networks", "client_scale", "seed", "threads"};

[[noreturn]] void usage_error(char** argv, const std::string& why) {
  std::fprintf(stderr, "%s: %s\nusage: %s [networks] [client_scale] [seed] [threads]\n",
               argv[0], why.c_str(), argv[0]);
  std::exit(2);
}

}  // namespace

analysis::ScenarioScale scale_from_args(int argc, char** argv, int default_networks) {
  if (argc > 5) usage_error(argv, "too many arguments");
  const auto reject = [&](int i, const std::string& want) {
    usage_error(argv, std::string(kArgNames[i]) + " must be " + want + ", got '" + argv[i] + "'");
  };
  analysis::ScenarioScale scale;
  scale.networks = default_networks;
  if (argc > 1) {
    const int max = analysis::paper_network_count();
    const auto v = cli::parse_int(argv[1], 1, max);
    if (!v) reject(1, "an integer in [1, " + std::to_string(max) + "]");
    scale.networks = static_cast<int>(*v);
  }
  if (argc > 2) {
    const auto v = cli::parse_double(argv[2]);
    if (!v || *v < 0.0) reject(2, "a finite number >= 0");
    scale.client_scale = *v;
  }
  if (argc > 3) {
    const auto v = cli::parse_int(argv[3]);
    if (!v) reject(3, "an integer");
    scale.seed = static_cast<std::uint64_t>(*v);
  }
  if (argc > 4) {
    const auto v = cli::parse_int(argv[4], 1, INT_MAX);
    if (!v) reject(4, "an integer >= 1");
    scale.threads = static_cast<int>(*v);
  }
  return scale;
}

void print_header(const char* experiment, const analysis::ScenarioScale& scale) {
  std::printf(
      "=== %s ===\n(simulated fleet: %d networks, client scale %.2f, seed %llu, "
      "%d worker thread%s)\n\n",
      experiment, scale.networks, scale.client_scale,
      static_cast<unsigned long long>(scale.seed), scale.threads,
      scale.threads == 1 ? "" : "s");
}

}  // namespace wlm::bench

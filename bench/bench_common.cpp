#include "bench_common.hpp"

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <string>

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

analysis::ScenarioScale scale_from_args(int argc, char** argv, int default_networks) {
  analysis::ScenarioScale scale;
  scale.networks = default_networks;
  if (argc > 1) scale.networks = std::atoi(argv[1]);
  if (argc > 2) scale.client_scale = std::atof(argv[2]);
  if (argc > 3) scale.seed = static_cast<std::uint64_t>(std::atoll(argv[3]));
  if (argc > 4) scale.threads = std::atoi(argv[4]);
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

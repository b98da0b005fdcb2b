// Shared helpers for the fault-sweep, full-scale and mobility benches.
#pragma once

#include <cstdint>
#include <string>

#include "analysis/experiments.hpp"

namespace wlm::bench {

/// Scale from argv: bench_x [networks] [client_scale] [seed] [threads],
/// with `default_networks` when networks is absent. The bounds are
/// wlmctl's: networks in [1, 20667], client_scale finite and >= 0, threads
/// >= 1. A malformed or out-of-range argument prints a usage line and exits
/// with status 2.
[[nodiscard]] analysis::ScenarioScale scale_from_args(int argc, char** argv,
                                                      int default_networks);

/// Renders the two fields every BENCH_*.json record carries regardless of
/// shape — `"fragments_frames_per_sec": R, "peak_rss_bytes": B` (no braces,
/// so emitters splice it into their own records). `work_items` is the
/// record's own deterministic work count and `seconds` its own wall clock;
/// peak RSS is the process high-water mark from getrusage.
[[nodiscard]] std::string rate_rss_fields(std::uint64_t work_items, double seconds);

/// Prints a standard header naming the experiment and the fleet it runs on.
void print_header(const char* experiment, const analysis::ScenarioScale& scale);

}  // namespace wlm::bench

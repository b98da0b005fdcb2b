// Wall-clock self-profiling, deliberately quarantined from the metrics
// registry. Phase timers answer "where do the cycles go" for the benchmark
// and the fleet runtime; their values are real elapsed seconds and
// therefore nondeterministic, so they must NEVER feed anything that claims
// bit-identity across runs or `--jobs` values. The split is structural:
// MetricsRegistry holds sim-time facts, PhaseProfiler holds wall-clock
// facts, and the exporters for one never see the other.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace wlm::telemetry {

/// Simple steady-clock stopwatch.
class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}

  void restart() { start_ = std::chrono::steady_clock::now(); }

  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start_).count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

struct PhaseStats {
  double seconds = 0.0;
  std::uint64_t count = 0;
};

/// Accumulates named wall-clock phases. Mutex-protected because several
/// threads may record concurrently; contention is nil (phases are recorded
/// once per campaign stage, not per event).
class PhaseProfiler {
 public:
  void record(std::string_view phase, double seconds);

  /// Sorted by phase name.
  [[nodiscard]] std::vector<std::pair<std::string, PhaseStats>> phases() const;

  void clear();

 private:
  mutable std::mutex mu_;
  std::map<std::string, PhaseStats> phases_;
};

/// Process-wide profiler: FleetRunner records its build, campaign and
/// harvest phases here, and the benchmark (perfbench) reads them back as
/// its per-layer timings.
PhaseProfiler& global_profiler();

/// Zeroes the process-wide profiler. The singleton object itself stays
/// alive for the whole process (it is deliberately never destroyed), but
/// phases it accumulated are dropped — call between benchmark runs so one
/// run's timings never bleed into the next.
void reset_global_profiler();

/// Process-wide tally of simulation work items, used by the benchmarks to
/// report throughput as work/second. The counts themselves are sim-determined
/// (fragments classified, report frames harvested) and therefore identical
/// across runs and `--jobs` values — only the division by wall-clock seconds
/// is nondeterministic, and that happens in the benchmark, never in anything
/// that claims bit-identity. Atomics because shards on worker
/// threads bump them concurrently; integer addition commutes, so thread
/// interleaving cannot change the totals.
struct WorkTally {
  std::atomic<std::uint64_t> fragments{0};
  std::atomic<std::uint64_t> frames{0};

  void reset() {
    fragments.store(0, std::memory_order_relaxed);
    frames.store(0, std::memory_order_relaxed);
  }
};

/// The process-wide tally (never destroyed, same lifetime story as
/// global_profiler()).
WorkTally& work_tally();

}  // namespace wlm::telemetry

#include "telemetry/profile.hpp"

namespace wlm::telemetry {

void PhaseProfiler::record(std::string_view phase, double seconds) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& stats = phases_[std::string(phase)];
  stats.seconds += seconds;
  ++stats.count;
}

std::vector<std::pair<std::string, PhaseStats>> PhaseProfiler::phases() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {phases_.begin(), phases_.end()};
}

void PhaseProfiler::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  phases_.clear();
}

PhaseProfiler& global_profiler() {
  // Intentionally leaked, so a phase recorded during static destruction
  // never touches a destroyed profiler.
  static PhaseProfiler* profiler = new PhaseProfiler();
  return *profiler;
}

void reset_global_profiler() { global_profiler().clear(); }

WorkTally& work_tally() {
  // Leaked for the same reason as global_profiler().
  static WorkTally* tally = new WorkTally();
  return *tally;
}

}  // namespace wlm::telemetry

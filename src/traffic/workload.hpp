// Weekly workload synthesis: which applications a device uses during the
// study week and how its OS-calibrated byte budget is split among them.
#pragma once

#include <vector>

#include "classify/apps.hpp"
#include "core/rng.hpp"
#include "deploy/epoch.hpp"
#include "deploy/population.hpp"
#include "traffic/flowgen.hpp"

namespace wlm::traffic {

/// One device's use of one application over the week.
struct AppUsage {
  classify::AppId app = classify::AppId::kUnclassified;
  std::uint64_t upstream_bytes = 0;
  std::uint64_t downstream_bytes = 0;

  [[nodiscard]] std::uint64_t total() const { return upstream_bytes + downstream_bytes; }
};

/// A device's full week: app usages plus one representative flow per app
/// (what the slow path actually inspects; byte counters then attach to the
/// classified application, exactly as in the paper's data path).
struct DeviceWeek {
  std::vector<AppUsage> usages;
  std::vector<GeneratedFlow> flows;

  [[nodiscard]] std::uint64_t total_bytes() const;
};

class WorkloadModel {
 public:
  WorkloadModel(deploy::Epoch epoch, Rng rng);

  /// Samples a device's week into a caller-owned week. Total bytes follow
  /// the OS model; the split across apps follows catalog client-shares x OS
  /// affinity; per-app up/down split follows the catalog's download
  /// fractions. Flow slots (and the payload buffers inside them) are reused
  /// across calls: the shard loop passes one scratch DeviceWeek for its
  /// whole device sweep, turning millions of per-flow allocations into a
  /// handful of steady-state buffers. `out` is fully rewritten.
  void generate_week(const deploy::ClientDevice& device, DeviceWeek& out);

 private:
  deploy::Epoch epoch_;
  Rng rng_;
  FlowGenerator flowgen_;

  struct Selected {
    classify::AppId app;
    double weight;
  };
  std::vector<Selected> selected_scratch_;  // reused across generate_week calls

  struct AppPick {
    classify::AppId app;
    double use_probability;  // chance the device touches the app this week
    double byte_weight;      // relative byte share when used
  };
  /// Per-OS pick table, built lazily and cached.
  [[nodiscard]] const std::vector<AppPick>& picks_for(classify::OsType os);
  std::vector<std::vector<AppPick>> pick_cache_;
};

}  // namespace wlm::traffic

#include "traffic/workload.hpp"

#include <algorithm>
#include <cmath>

#include "traffic/os_model.hpp"

namespace wlm::traffic {

namespace {

using classify::AppId;

}  // namespace

std::uint64_t DeviceWeek::total_bytes() const {
  std::uint64_t total = 0;
  for (const auto& u : usages) total += u.total();
  return total;
}

WorkloadModel::WorkloadModel(deploy::Epoch epoch, Rng rng)
    : epoch_(epoch), rng_(rng), flowgen_(rng_.fork()) {
  pick_cache_.resize(static_cast<std::size_t>(classify::kOsTypeCount));
}

const std::vector<WorkloadModel::AppPick>& WorkloadModel::picks_for(classify::OsType os) {
  auto& cached = pick_cache_[static_cast<std::size_t>(os)];
  if (!cached.empty()) return cached;

  const bool y2014 = epoch_ == deploy::Epoch::kJan2014;
  const double total = y2014 ? deploy::total_clients(deploy::Epoch::kJan2014)
                             : deploy::total_clients(deploy::Epoch::kJan2015);
  for (const auto& info : classify::app_catalog()) {
    if (info.id == AppId::kUnclassified) continue;
    const auto& stats = y2014 ? info.y2014 : info.y2015;
    const double affinity = app_affinity(os, info.id);
    if (affinity <= 0.0 || stats.clients <= 0.0) continue;
    AppPick pick;
    pick.app = info.id;
    pick.use_probability = std::clamp(stats.clients / total * affinity, 0.0, 1.0);
    // Relative byte share reflects the app's mean per-client appetite.
    // Affinity must NOT be applied here too: it already shaped selection.
    pick.byte_weight = stats.terabytes * 1e6 / std::max(stats.clients, 1.0);
    cached.push_back(pick);
  }
  return cached;
}

void WorkloadModel::generate_week(const deploy::ClientDevice& device, DeviceWeek& out) {
  out.usages.clear();
  const double budget = sample_weekly_bytes(device.os, epoch_, rng_);
  const OsUsageProfile profile = os_usage(device.os, epoch_);

  // Select this week's app set.
  auto& selected = selected_scratch_;
  selected.clear();
  const double os_mean = profile.mb_per_client * 1e6;
  // Heavy users disproportionately subscribe to byte-heavy services
  // (Netflix's 1.2 GB/week clients are not average clients), so selection
  // probability for high-appetite apps is coupled to the device's budget.
  const double budget_ratio = std::clamp(budget / std::max(os_mean, 1.0), 0.3, 3.0);
  for (const auto& pick : picks_for(device.os)) {
    double p = pick.use_probability;
    if (pick.byte_weight > 150e6) p = std::clamp(p * budget_ratio, 0.0, 1.0);
    if (!rng_.chance(p)) continue;
    // Jitter the weight: two users of the same app differ wildly.
    selected.push_back(Selected{pick.app, pick.byte_weight * rng_.lognormal(0.0, 0.8)});
  }
  if (selected.empty()) {
    selected.push_back(Selected{AppId::kMiscWeb, 1.0});
  }
  double weight_sum = 0.0;
  for (const auto& s : selected) weight_sum += s.weight;

  // Allocate bytes; correct the device's download fraction toward the OS
  // profile by scaling each app's split around its catalog value. Flow
  // slots already present in `out` are overwritten in place so their
  // payload buffers keep their capacity; surplus slots are trimmed.
  std::size_t flow_count = 0;
  for (const auto& s : selected) {
    const double bytes = budget * s.weight / weight_sum;
    if (bytes < 1.0) continue;
    const auto& info = classify::app_info(s.app);
    const auto& stats = epoch_ == deploy::Epoch::kJan2014 ? info.y2014 : info.y2015;
    // Blend app and OS download propensities.
    const double down_frac = std::clamp(0.75 * stats.download_frac + 0.25 * profile.download_frac,
                                        0.0, 1.0);
    AppUsage usage;
    usage.app = s.app;
    usage.downstream_bytes = static_cast<std::uint64_t>(bytes * down_frac);
    usage.upstream_bytes = static_cast<std::uint64_t>(bytes * (1.0 - down_frac));
    if (flow_count == out.flows.size()) out.flows.emplace_back();
    flowgen_.make_flow_into(s.app, device.os, usage.upstream_bytes, usage.downstream_bytes,
                            out.flows[flow_count]);
    ++flow_count;
    out.usages.push_back(usage);
  }
  if (out.flows.size() > flow_count) out.flows.resize(flow_count);
}

}  // namespace wlm::traffic

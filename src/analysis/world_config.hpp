// The fleet configuration behind the usage study, shared with the studies
// seeded like it.
#pragma once

#include "analysis/experiments.hpp"
#include "deploy/epoch.hpp"
#include "deploy/generator.hpp"
#include "sim/fleet_runner.hpp"

namespace wlm::analysis {

/// A fleet of `scale.networks` `model` APs for `epoch`, with the fleet and
/// runner seeds derived from `scale.seed` and the epoch. The mobility and
/// mesh studies start from (kJan2015, kMr16), so their renders are directly
/// comparable to Table 3/5/6 runs at the same scale.
[[nodiscard]] sim::WorldConfig make_world_config(const ScenarioScale& scale,
                                                 deploy::Epoch epoch, deploy::ApModel model);

}  // namespace wlm::analysis

// Measurement epochs used throughout the paper's comparisons.
#pragma once

#include <cstdint>

namespace wlm::deploy {

enum class Epoch : std::uint8_t {
  kJan2014,  // usage/capability baseline week (Jan 15-22, 2014)
  kJul2014,  // "six months ago" for interference comparisons
  kJan2015,  // the primary measurement week (Jan 15-22, 2015)
};

}  // namespace wlm::deploy

// 802.11 channel plans for the 2.4 GHz ISM band and the 5 GHz UNII bands,
// including the US (FCC Part 15) channel set the paper's access points used,
// DFS flags, and spectral-overlap computation between 20/40 MHz channels.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/units.hpp"

namespace wlm::phy {

enum class Band : std::uint8_t { k2_4GHz, k5GHz };

[[nodiscard]] constexpr const char* band_name(Band b) {
  return b == Band::k2_4GHz ? "2.4 GHz" : "5 GHz";
}

/// Sub-bands of the 5 GHz spectrum as described in paper §4.1.
enum class Unii : std::uint8_t {
  kNone,      // 2.4 GHz channel
  kUnii1,     // 36-48, lower band
  kUnii2,     // 52-64, middle band (DFS)
  kUnii2Ext,  // 100-140, extended band (DFS)
  kUnii3,     // 149-165, upper band
};

[[nodiscard]] const char* unii_name(Unii u);

enum class ChannelWidth : std::uint8_t { k20MHz = 20, k40MHz = 40 };

/// One assignable channel.
struct Channel {
  int number = 0;
  Band band = Band::k2_4GHz;
  FrequencyMhz center;
  ChannelWidth width = ChannelWidth::k20MHz;
  bool requires_dfs = false;
  Unii unii = Unii::kNone;

  [[nodiscard]] double width_mhz() const { return static_cast<double>(width); }

  bool operator==(const Channel&) const = default;
};

/// The US regulatory channel plan (what the paper's fleet used).
class ChannelPlan {
 public:
  /// All 20 MHz channels: 2.4 GHz 1-11 plus the 5 GHz UNII channels.
  [[nodiscard]] static const ChannelPlan& us();

  [[nodiscard]] const std::vector<Channel>& channels() const { return channels_; }
  [[nodiscard]] std::vector<Channel> band_channels(Band band) const;
  /// The three non-overlapping 2.4 GHz channels: 1, 6, 11.
  [[nodiscard]] std::vector<Channel> non_overlapping_2_4() const;
  [[nodiscard]] std::optional<Channel> find(Band band, int number) const;

 private:
  explicit ChannelPlan(std::vector<Channel> channels) : channels_(std::move(channels)) {}
  std::vector<Channel> channels_;
};

/// Center frequency for a channel number within a band (20 MHz grid).
[[nodiscard]] FrequencyMhz channel_center(Band band, int number);

/// Fraction of `a`'s occupied bandwidth that overlaps `b`'s, in [0,1].
/// Adjacent 2.4 GHz channels overlap partially (the reason channels 1/6/11
/// are the only clean choices); most 5 GHz channels do not overlap at all.
[[nodiscard]] double channel_overlap(const Channel& a, const Channel& b);

/// Attenuation applied to interference from a partially overlapping channel:
/// 0 dB co-channel, rising as overlap shrinks, +inf (represented as 200 dB)
/// when disjoint.
[[nodiscard]] double adjacent_channel_rejection_db(const Channel& a, const Channel& b);

}  // namespace wlm::phy

// Identifier types: MAC addresses and strongly typed entity ids.
//
// MAC addresses are the primary join key of the whole system — the backend
// aggregates usage by client MAC across roaming (paper §2.3) and OS
// fingerprinting starts from the OUI prefix (paper §3.2).
#pragma once

#include <array>
#include <compare>
#include <cstdint>
#include <functional>

namespace wlm {

/// 48-bit IEEE 802 MAC address.
class MacAddress {
 public:
  constexpr MacAddress() = default;
  constexpr explicit MacAddress(std::array<std::uint8_t, 6> octets) : octets_(octets) {}

  /// Build from a packed 48-bit integer (top 16 bits of the u64 ignored).
  [[nodiscard]] static constexpr MacAddress from_u64(std::uint64_t v) {
    return MacAddress{{static_cast<std::uint8_t>(v >> 40), static_cast<std::uint8_t>(v >> 32),
                       static_cast<std::uint8_t>(v >> 24), static_cast<std::uint8_t>(v >> 16),
                       static_cast<std::uint8_t>(v >> 8), static_cast<std::uint8_t>(v)}};
  }

  [[nodiscard]] constexpr std::uint64_t to_u64() const {
    std::uint64_t v = 0;
    for (auto o : octets_) v = (v << 8) | o;
    return v;
  }

  /// 24-bit Organizationally Unique Identifier (vendor prefix).
  [[nodiscard]] constexpr std::uint32_t oui() const {
    return (static_cast<std::uint32_t>(octets_[0]) << 16) |
           (static_cast<std::uint32_t>(octets_[1]) << 8) | octets_[2];
  }

  /// Locally administered MACs (bit 1 of first octet) are randomized client
  /// addresses; they defeat OUI-based fingerprinting.
  [[nodiscard]] constexpr bool locally_administered() const { return (octets_[0] & 0x02) != 0; }
  [[nodiscard]] constexpr bool multicast() const { return (octets_[0] & 0x01) != 0; }

  [[nodiscard]] constexpr const std::array<std::uint8_t, 6>& octets() const { return octets_; }

  auto operator<=>(const MacAddress&) const = default;

 private:
  std::array<std::uint8_t, 6> octets_{};
};

/// The all-ones broadcast address.
[[nodiscard]] constexpr MacAddress broadcast_mac() {
  return MacAddress{{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}};
}

// Strongly typed numeric ids. Distinct tag types prevent passing an ApId
// where a NetworkId is expected.
template <typename Tag>
class Id {
 public:
  constexpr Id() = default;
  constexpr explicit Id(std::uint32_t v) : v_(v) {}
  [[nodiscard]] constexpr std::uint32_t value() const { return v_; }
  auto operator<=>(const Id&) const = default;

 private:
  std::uint32_t v_ = 0;
};

struct NetworkTag {};
struct ApTag {};
struct ClientTag {};
struct OrgTag {};
struct SiteTag {};

using NetworkId = Id<NetworkTag>;
using ApId = Id<ApTag>;
using ClientId = Id<ClientTag>;
using OrgId = Id<OrgTag>;
using SiteId = Id<SiteTag>;

}  // namespace wlm

template <>
struct std::hash<wlm::MacAddress> {
  std::size_t operator()(const wlm::MacAddress& m) const noexcept {
    return std::hash<std::uint64_t>{}(m.to_u64());
  }
};

template <typename Tag>
struct std::hash<wlm::Id<Tag>> {
  std::size_t operator()(const wlm::Id<Tag>& id) const noexcept {
    return std::hash<std::uint32_t>{}(id.value());
  }
};

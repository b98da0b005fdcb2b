// CRC-32 (IEEE 802.3 polynomial).
//
// CRC-32 guards the telemetry framing layer (wire/framing), checkpoint
// sections and tsdb segments.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>

namespace wlm {

/// CRC-32 with the reflected 0xEDB88320 polynomial (same as zlib's crc32).
[[nodiscard]] std::uint32_t crc32(std::span<const std::uint8_t> data);

/// Incremental form: feed `crc` from a previous call (start with 0).
[[nodiscard]] std::uint32_t crc32_update(std::uint32_t crc, std::span<const std::uint8_t> data);

}  // namespace wlm

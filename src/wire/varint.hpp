// Base-128 varint and ZigZag codecs — the primitive layer of the telemetry
// wire format (paper §2: statistics protocols are "built with Google
// Protocol Buffers to minimize reporting overhead"; we implement the same
// encoding from scratch).
//
// Everything here is defined inline: the codecs run once per encoded field
// (tens of millions of calls per fleet harvest), and the per-call overhead
// of an out-of-line function dominated the actual bit twiddling in profiles.
#pragma once

#include <cstdint>
#include <vector>

namespace wlm::wire {

/// Appends the varint encoding of v (1-10 bytes) to out. Single-byte values
/// (field tags, small counters — the bulk of this wire) take the early
/// return; the multibyte loop sticks to push_back, whose inlined
/// capacity-check beats the library's out-of-line range-insert for these
/// tiny appends.
inline void put_varint(std::vector<std::uint8_t>& out, std::uint64_t v) {
  if (v < 0x80) {
    out.push_back(static_cast<std::uint8_t>(v));
    return;
  }
  do {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  } while (v >= 0x80);
  out.push_back(static_cast<std::uint8_t>(v));
}

/// Stores the varint encoding of v at p, which must have room for 10 bytes,
/// and returns the end of what it wrote.
inline std::uint8_t* store_varint(std::uint8_t* p, std::uint64_t v) {
  while (v >= 0x80) {
    *p++ = static_cast<std::uint8_t>(v) | 0x80;
    v >>= 7;
  }
  *p++ = static_cast<std::uint8_t>(v);
  return p;
}

/// The one varint reader: parses the varint starting at p into out and
/// returns the advanced pointer, or nullptr on truncation or an over-long
/// (>10 byte) encoding.
[[nodiscard]] inline const std::uint8_t* parse_varint(const std::uint8_t* p,
                                                      const std::uint8_t* end,
                                                      std::uint64_t& out) {
  if (p == end) return nullptr;
  std::uint64_t value = *p & 0x7Fu;
  if ((*p & 0x80u) == 0) {
    out = value;
    return p + 1;
  }
  ++p;
  int shift = 7;
  for (int i = 1; i < 10 && p != end; ++i, ++p) {
    value |= static_cast<std::uint64_t>(*p & 0x7Fu) << shift;
    if ((*p & 0x80u) == 0) {
      out = value;
      return p + 1;
    }
    shift += 7;
  }
  return nullptr;  // truncated or over-long
}

/// ZigZag maps signed to unsigned so small negatives stay small on the wire.
[[nodiscard]] constexpr std::uint64_t zigzag_encode(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^ static_cast<std::uint64_t>(v >> 63);
}
[[nodiscard]] constexpr std::int64_t zigzag_decode(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^ -static_cast<std::int64_t>(v & 1);
}

/// Number of bytes put_varint would write.
[[nodiscard]] inline std::size_t varint_size(std::uint64_t v) {
  std::size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

}  // namespace wlm::wire

// Tag-length-value message encoder (protobuf wire-format compatible layout:
// field tags are (field_number << 3) | wire_type).
//
// Header-only: every field of every report passes through these appenders,
// so they must inline into the message serializers.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "wire/varint.hpp"

namespace wlm::wire {

enum class WireType : std::uint8_t {
  kVarint = 0,
  kFixed64 = 1,
  kLengthDelimited = 2,
  kFixed32 = 5,
};

[[nodiscard]] constexpr std::uint64_t make_tag(std::uint32_t field, WireType type) {
  return (static_cast<std::uint64_t>(field) << 3) | static_cast<std::uint64_t>(type);
}

/// Longest encodings of a field tag (field numbers are 32-bit) and a varint.
inline constexpr std::size_t kMaxTagBytes = 5;
inline constexpr std::size_t kMaxVarintBytes = 10;

/// Append-only message builder. Each field reserves room for its largest
/// encoding once and is then written through a raw pointer. Nested messages
/// are written in place (add_message). Hot paths reuse one encoder via
/// clear(), so the buffer's capacity survives across reports.
class Encoder {
 public:
  void add_uint(std::uint32_t field, std::uint64_t v) {
    std::uint8_t* p = room(kMaxTagBytes + kMaxVarintBytes);
    p = store_varint(p, make_tag(field, WireType::kVarint));
    commit(store_varint(p, v));
  }
  /// ZigZag-encoded signed integer.
  void add_sint(std::uint32_t field, std::int64_t v) { add_uint(field, zigzag_encode(v)); }
  void add_bool(std::uint32_t field, bool v) { add_uint(field, v ? 1 : 0); }
  /// Little-endian fixed64.
  void add_double(std::uint32_t field, double v) {
    std::uint8_t* p = room(kMaxTagBytes + 8);
    p = store_varint(p, make_tag(field, WireType::kFixed64));
    std::uint64_t bits = 0;
    static_assert(sizeof bits == sizeof v);
    std::memcpy(&bits, &v, sizeof bits);
    for (int i = 0; i < 8; ++i) *p++ = static_cast<std::uint8_t>(bits >> (8 * i));
    commit(p);
  }

  /// Writes a nested message as a length-delimited field: `body` adds the
  /// child's fields to this encoder, then the length in front of them is
  /// back-patched. One length byte is reserved up front; a child of 128
  /// bytes or more is shifted right to widen it.
  template <class Body>
  void add_message(std::uint32_t field, Body&& body) {
    std::uint8_t* p = room(kMaxTagBytes + 1);
    p = store_varint(p, make_tag(field, WireType::kLengthDelimited));
    commit(p + 1);
    const std::size_t start = len_;
    body();
    const std::size_t n = len_ - start;
    if (n < 0x80) {
      buf_[start - 1] = static_cast<std::uint8_t>(n);
      return;
    }
    const std::size_t extra = varint_size(n) - 1;
    room(extra);
    std::memmove(buf_.data() + start + extra, buf_.data() + start, n);
    store_varint(buf_.data() + start - 1, n);
    len_ += extra;
  }

  /// Drops the content but keeps the capacity.
  void clear() { len_ = 0; }

  [[nodiscard]] std::span<const std::uint8_t> bytes() const { return {buf_.data(), len_}; }
  [[nodiscard]] std::vector<std::uint8_t> take() && {
    buf_.resize(len_);
    return std::move(buf_);
  }
  [[nodiscard]] std::size_t size() const { return len_; }

 private:
  /// Room for n more bytes past the written end.
  std::uint8_t* room(std::size_t n) {
    if (buf_.size() - len_ < n) buf_.resize(std::max(2 * buf_.size(), len_ + n));
    return buf_.data() + len_;
  }
  void commit(std::uint8_t* end) { len_ = static_cast<std::size_t>(end - buf_.data()); }

  std::vector<std::uint8_t> buf_;  // sized past len_; only [0, len_) is written
  std::size_t len_ = 0;
};

}  // namespace wlm::wire

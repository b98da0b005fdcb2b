// Streaming field decoder: the one walker every wire message is parsed with.
//
// Unknown fields are skippable, which is what lets the backend "handle
// schema changes and new software revisions without affecting the
// measurement data" (paper §2): old collectors skip fields added by newer
// firmware instead of failing.
//
// Header-only: next() runs once per field of every harvested report (tens
// of millions of calls per fleet run), so it is forced inline into the
// message decoders together with parse_varint; left to the compiler's
// judgement it stays out of line and report decode runs ~40% slower.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>

#include "wire/encoder.hpp"

namespace wlm::wire {

/// One decoded field: its number and value. `varint` holds the value of a
/// varint, fixed32 or fixed64 field and is 0 for a length-delimited one;
/// `payload` is empty for every type but length-delimited. A field sent
/// with an unexpected wire type therefore reads as 0 or as an empty
/// sub-message.
struct Field {
  std::uint32_t number = 0;
  std::uint64_t varint = 0;
  std::span<const std::uint8_t> payload;

  [[nodiscard]] std::uint64_t as_uint() const { return varint; }
  [[nodiscard]] std::int64_t as_sint() const { return zigzag_decode(varint); }
  [[nodiscard]] bool as_bool() const { return varint != 0; }
  [[nodiscard]] double as_double() const {
    double v = 0.0;
    std::memcpy(&v, &varint, sizeof v);
    return v;
  }
};

/// Iterates the fields of one message. Malformed input (field number 0 or
/// 2^32 and above, wire types 3/4/6/7, truncation, a length past the end)
/// stops the walk and flips ok() to false rather than throwing.
class Decoder {
 public:
  explicit Decoder(std::span<const std::uint8_t> data)
      : p_(data.data()), end_(data.data() + data.size()) {}

  /// Reads the next field into f; false at end of message or on error.
  [[nodiscard, gnu::always_inline]] bool next(Field& f) {
    if (p_ == end_) return false;
    std::uint64_t tag = 0;
    const std::uint8_t* p = parse_varint(p_, end_, tag);
    // Field numbers run from 1 to 2^32 - 1: tags from 8 to 2^35 - 1.
    if (p == nullptr || tag - 8 >= (std::uint64_t{1} << 35) - 8) return fail();
    f.number = static_cast<std::uint32_t>(tag >> 3);
    switch (tag & 0x7) {
      case 0:
        f.payload = {};
        p = parse_varint(p, end_, f.varint);
        if (p == nullptr) return fail();
        break;
      case 1:
        f.payload = {};
        if (end_ - p < 8) return fail();
        f.varint = load_le(p, 8);
        p += 8;
        break;
      case 2: {
        f.varint = 0;
        std::uint64_t len = 0;
        p = parse_varint(p, end_, len);
        if (p == nullptr || len > static_cast<std::uint64_t>(end_ - p)) return fail();
        f.payload = {p, static_cast<std::size_t>(len)};
        p += len;
        break;
      }
      case 5:
        f.payload = {};
        if (end_ - p < 4) return fail();
        f.varint = load_le(p, 4);
        p += 4;
        break;
      default:
        return fail();
    }
    p_ = p;
    return true;
  }

  [[nodiscard]] bool ok() const { return ok_; }

 private:
  static std::uint64_t load_le(const std::uint8_t* p, int n) {
    std::uint64_t v = 0;
    for (int i = n - 1; i >= 0; --i) v = (v << 8) | p[i];
    return v;
  }
  bool fail() {
    ok_ = false;
    p_ = end_;
    return false;
  }

  const std::uint8_t* p_;
  const std::uint8_t* end_;
  bool ok_ = true;
};

}  // namespace wlm::wire

// Typed parse failures for the slow-path protocol parsers.
//
// The paper's Click elements inspect hostile bytes off the air: DNS, HTTP,
// TLS, and DHCP payloads arrive truncated, with lying length fields, and
// with looping compression chains. Every parser in this module therefore
// fails *typed* — a ParseError naming what broke — and never crashes or
// loops. The DNS, HTTP and TLS parsers fill a caller-owned slot and return
// the ParseError (`_into`); the DHCP parser's `_ex` form returns Parsed<T>.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

namespace wlm::classify {

enum class ParseError : std::uint8_t {
  kNone = 0,
  kTruncated,    // ran out of bytes mid-structure
  kBadMagic,     // not this protocol at all (wrong magic/type/cookie)
  kBadLength,    // a length field lies about the bytes that follow
  kBadValue,     // a field holds an illegal value
  kPointerLoop,  // DNS compression chain exceeded the 127-hop bound
};

[[nodiscard]] constexpr std::string_view parse_error_name(ParseError e) {
  switch (e) {
    case ParseError::kNone: return "none";
    case ParseError::kTruncated: return "truncated";
    case ParseError::kBadMagic: return "bad_magic";
    case ParseError::kBadLength: return "bad_length";
    case ParseError::kBadValue: return "bad_value";
    case ParseError::kPointerLoop: return "pointer_loop";
  }
  return "invalid";
}

/// Parse outcome: either a value or a non-kNone error, never both unset.
template <typename T>
struct Parsed {
  std::optional<T> value;
  ParseError error = ParseError::kNone;

  [[nodiscard]] bool ok() const { return value.has_value(); }

  static Parsed success(T v) { return Parsed{std::move(v), ParseError::kNone}; }
  static Parsed failure(ParseError e) { return Parsed{std::nullopt, e}; }
};

}  // namespace wlm::classify

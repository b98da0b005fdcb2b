// TLS ClientHello codec — the slow path inspects "packets containing SSL
// handshakes" (paper §2.1); the Server Name Indication extension carries the
// hostname used to classify HTTPS flows.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "classify/parse_error.hpp"

namespace wlm::classify {

struct ClientHelloInfo {
  std::uint16_t legacy_version = 0x0303;  // TLS 1.2 on the wire
  std::string sni;                        // empty when the extension is absent
  std::size_t cipher_suite_count = 0;
};

/// Builds a syntactically valid ClientHello record with an SNI extension.
/// `random32` seeds the 32-byte client random deterministically.
[[nodiscard]] std::vector<std::uint8_t> build_client_hello(std::string_view sni,
                                                           std::uint64_t random32 = 0);

/// Same record written into a caller-owned buffer (cleared first) in a
/// single pass — the generator's hot loop reuses one allocation per flow.
void build_client_hello_into(std::string_view sni, std::uint64_t random32,
                             std::vector<std::uint8_t>& out);

/// Parses a TLS record containing a ClientHello; extracts SNI when present.
/// Every malformed record fails typed: kBadMagic for non-handshake /
/// non-ClientHello bytes, kBadLength for lying record or handshake lengths,
/// kTruncated for bodies that run out mid-field, kBadValue for an odd
/// cipher-suite length.
[[nodiscard]] Parsed<ClientHelloInfo> parse_client_hello_ex(
    std::span<const std::uint8_t> record);

/// Same parse into a caller-owned info whose sni string keeps its capacity
/// across records — for the classifier's hot loop. Returns kNone on
/// success; `out` holds default values for absent fields either way.
ParseError parse_client_hello_into(std::span<const std::uint8_t> record, ClientHelloInfo& out);

}  // namespace wlm::classify

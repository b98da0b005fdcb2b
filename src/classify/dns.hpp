// Minimal DNS wire codec (RFC 1035): enough to build the query packets the
// traffic generator emits and to let the classifier's slow path extract the
// queried hostname — the paper's first application-identification signal
// ("initial DNS lookup", §3.3).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "classify/parse_error.hpp"

namespace wlm::classify {

struct DnsQuestion {
  std::string qname;       // dotted, lowercase
  std::uint16_t qtype = 1;  // A
  std::uint16_t qclass = 1; // IN
};

struct DnsMessage {
  std::uint16_t id = 0;
  bool is_response = false;
  std::vector<DnsQuestion> questions;
  std::uint16_t answer_count = 0;  // parsed but answers are not materialized
};

/// Compression-pointer hop bound: a legal name has at most 127 labels
/// (255-byte name, 2 bytes per minimal label), so no well-formed chain needs
/// more hops than that. Chains past the bound fail with kPointerLoop.
inline constexpr int kDnsMaxPointerHops = 127;

/// Encodes a single-question query. Names longer than 255 bytes or with
/// labels over 63 bytes are truncated per-spec limits.
[[nodiscard]] std::vector<std::uint8_t> encode_dns_query(std::uint16_t id,
                                                         std::string_view qname);

/// Same encoding written into a caller-owned buffer (cleared first) so a
/// hot generator loop can reuse one allocation across millions of queries.
void encode_dns_query_into(std::uint16_t id, std::string_view qname,
                           std::vector<std::uint8_t>& out);

/// Parses header + question section (answers are skipped). Compression
/// pointers in QNAMEs are followed with the kDnsMaxPointerHops bound; every
/// malformed input fails typed (kTruncated / kBadLength / kPointerLoop).
[[nodiscard]] Parsed<DnsMessage> parse_dns_ex(std::span<const std::uint8_t> packet);

/// Same parse into a caller-owned message whose question slots (and qname
/// strings) keep their capacity across packets — for the classifier's hot
/// loop. Returns kNone on success; `out` is unspecified on failure.
ParseError parse_dns_into(std::span<const std::uint8_t> packet, DnsMessage& out);

}  // namespace wlm::classify

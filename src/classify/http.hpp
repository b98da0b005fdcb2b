// HTTP/1.x request-head parser — the slow path inspects "packets containing
// HTTP headers" (paper §2.1) to pull Host and User-Agent for classification.
#pragma once

#include <string>
#include <string_view>

#include "classify/parse_error.hpp"

namespace wlm::classify {

struct HttpRequestHead {
  std::string method;
  std::string target;
  std::string version;
  std::string host;          // lowercased, port stripped
  std::string user_agent;
  std::string content_type;  // from the request, when present
};

/// RFC 7230 token character (legal in a method name). The first payload
/// byte of any parsable HTTP request is a token char, a space, or a tab —
/// the classifier's first-byte dispatch keys on exactly this predicate.
[[nodiscard]] bool http_token_char(char c);

/// Parses the request line and headers from the start of a TCP payload.
/// Tolerates a truncated header block (classification works from the first
/// packet of a flow); fails typed — kTruncated for an empty payload,
/// kBadValue when the request line itself is absent or malformed.
[[nodiscard]] Parsed<HttpRequestHead> parse_http_request_ex(std::string_view payload);

/// Same parse into a caller-owned head whose strings keep their capacity —
/// the classifier's hot loop reuses one head across millions of flows. All
/// fields are cleared first; returns kNone on success.
ParseError parse_http_request_into(std::string_view payload, HttpRequestHead& out);

/// Builds a request head for the traffic generator.
[[nodiscard]] std::string build_http_request(std::string_view method, std::string_view host,
                                             std::string_view path, std::string_view user_agent,
                                             std::string_view content_type = {});

/// Same request head appended into a caller-owned string (cleared first) so
/// the generator's hot loop reuses one allocation across flows.
void build_http_request_into(std::string_view method, std::string_view host,
                             std::string_view path, std::string_view user_agent,
                             std::string_view content_type, std::string& out);

}  // namespace wlm::classify

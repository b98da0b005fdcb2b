#include "classify/http.hpp"

#include <algorithm>
#include <cctype>

namespace wlm::classify {

namespace {

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) s.remove_prefix(1);
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t' || s.back() == '\r')) {
    s.remove_suffix(1);
  }
  return s;
}

void assign_lower(std::string& out, std::string_view s) {
  out.assign(s);
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
}

bool iequals(std::string_view a, std::string_view b) {
  return a.size() == b.size() &&
         std::equal(a.begin(), a.end(), b.begin(), [](unsigned char x, unsigned char y) {
           return std::tolower(x) == std::tolower(y);
         });
}

}  // namespace

bool http_token_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '!' || c == '#' || c == '$' ||
         c == '%' || c == '&' || c == '\'' || c == '*' || c == '+' || c == '-' || c == '.' ||
         c == '^' || c == '_' || c == '`' || c == '|' || c == '~';
}

ParseError parse_http_request_into(std::string_view payload, HttpRequestHead& out) {
  out.method.clear();
  out.target.clear();
  out.version.clear();
  out.host.clear();
  out.user_agent.clear();
  out.content_type.clear();
  if (payload.empty()) return ParseError::kTruncated;
  const std::size_t line_end = payload.find('\n');
  const std::string_view request_line =
      trim(line_end == std::string_view::npos ? payload : payload.substr(0, line_end));

  // METHOD SP TARGET SP HTTP/x.y
  const std::size_t sp1 = request_line.find(' ');
  if (sp1 == std::string_view::npos || sp1 == 0) return ParseError::kBadValue;
  const std::size_t sp2 = request_line.rfind(' ');
  if (sp2 == sp1) return ParseError::kBadValue;
  const std::string_view method = request_line.substr(0, sp1);
  const std::string_view target = trim(request_line.substr(sp1 + 1, sp2 - sp1 - 1));
  const std::string_view version = request_line.substr(sp2 + 1);
  if (!std::all_of(method.begin(), method.end(), http_token_char)) {
    return ParseError::kBadValue;
  }
  if (!version.starts_with("HTTP/")) return ParseError::kBadMagic;
  if (target.empty()) return ParseError::kBadValue;

  out.method = method;
  out.target = target;
  out.version = version;

  std::size_t pos = line_end == std::string_view::npos ? payload.size() : line_end + 1;
  while (pos < payload.size()) {
    std::size_t eol = payload.find('\n', pos);
    if (eol == std::string_view::npos) eol = payload.size();
    const std::string_view line = trim(payload.substr(pos, eol - pos));
    pos = eol + 1;
    if (line.empty()) break;  // end of headers
    const std::size_t colon = line.find(':');
    if (colon == std::string_view::npos) continue;  // tolerate junk lines
    const std::string_view name = trim(line.substr(0, colon));
    const std::string_view value = trim(line.substr(colon + 1));
    if (iequals(name, "host")) {
      std::string& host = out.host;
      assign_lower(host, value);
      const std::size_t port = host.rfind(':');
      // Strip ":port" but not an IPv6 literal's colons.
      if (port != std::string::npos && host.find(']') == std::string::npos &&
          host.find(':') == port) {
        host.resize(port);
      }
    } else if (iequals(name, "user-agent")) {
      out.user_agent = value;
    } else if (iequals(name, "content-type")) {
      assign_lower(out.content_type, value);
    }
  }
  return ParseError::kNone;
}

void build_http_request_into(std::string_view method, std::string_view host,
                             std::string_view path, std::string_view user_agent,
                             std::string_view content_type, std::string& out) {
  out.clear();
  out.reserve(128 + host.size() + path.size() + user_agent.size());
  out.append(method).append(" ").append(path).append(" HTTP/1.1\r\n");
  out.append("Host: ").append(host).append("\r\n");
  if (!user_agent.empty()) out.append("User-Agent: ").append(user_agent).append("\r\n");
  if (!content_type.empty()) out.append("Content-Type: ").append(content_type).append("\r\n");
  out.append("Accept: */*\r\n\r\n");
}

}  // namespace wlm::classify

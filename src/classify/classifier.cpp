#include "classify/classifier.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <map>
#include <set>

#include "classify/dns.hpp"
#include "classify/http.hpp"
#include "classify/oui.hpp"
#include "classify/rule_index.hpp"
#include "classify/tls.hpp"
#include "classify/user_agent.hpp"

namespace wlm::classify {

namespace {

OsType classify_os_impl(const ClientEvidence& evidence, HeuristicsVersion version,
                        const RuleIndex* index) {
  const auto dhcp_lookup = [index](std::span<const std::uint8_t> params) {
    return index ? index->os_from_dhcp(params) : os_from_dhcp(params);
  };
  const auto ua_lookup = [index](std::string_view ua) {
    return index ? index->os_from_user_agent(ua) : os_from_user_agent(ua);
  };

  // --- DHCP fingerprints: the strongest signal. ---
  std::set<OsType> dhcp_votes;
  for (const auto& params : evidence.dhcp_fingerprints) {
    std::optional<OsType> os;
    if (version == HeuristicsVersion::k2014) {
      // The older heuristics only accepted exact signature matches.
      os = dhcp_lookup(params);
      if (os && canonical_dhcp_params(*os) != params) os = std::nullopt;
    } else {
      os = dhcp_lookup(params);
    }
    if (os) dhcp_votes.insert(*os);
  }
  if (dhcp_votes.size() > 1) {
    // Distinct stacks behind one MAC: dual-boot or VM host (paper §3.2).
    return OsType::kUnknown;
  }

  // --- User-Agent strings: may legitimately disagree (apps, spoofing). ---
  std::map<OsType, int> ua_votes;
  for (const auto& ua : evidence.user_agents) {
    if (const auto os = ua_lookup(ua)) ++ua_votes[*os];
  }

  if (dhcp_votes.size() == 1) {
    const OsType dhcp_os = *dhcp_votes.begin();
    // UA evidence can refine a coarse DHCP result (e.g. Apple's desktop and
    // mobile stacks share fingerprints in old tables) but never override a
    // unanimously different one unless *all* UAs agree.
    if (!ua_votes.empty()) {
      const auto best =
          std::max_element(ua_votes.begin(), ua_votes.end(),
                           [](const auto& a, const auto& b) { return a.second < b.second; });
      if (ua_votes.size() == 1 && best->first != dhcp_os) {
        // Single consistent UA OS contradicting DHCP: ambiguous hardware.
        return version == HeuristicsVersion::k2015 ? best->first : OsType::kUnknown;
      }
    }
    return dhcp_os;
  }

  // --- No DHCP result: UA majority. ---
  if (!ua_votes.empty()) {
    OsType best = OsType::kUnknown;
    int best_count = 0;
    bool tie = false;
    for (const auto& [os, count] : ua_votes) {
      if (count > best_count) {
        best = os;
        best_count = count;
        tie = false;
      } else if (count == best_count) {
        tie = true;
      }
    }
    if (!tie) return best;
    return OsType::kUnknown;
  }

  // --- Vendor prior (2015 heuristics only). ---
  if (version == HeuristicsVersion::k2015) {
    if (const auto os = os_hint_from_vendor(vendor_for(evidence.mac))) return *os;
  }
  return OsType::kUnknown;
}

}  // namespace

OsType classify_os(const ClientEvidence& evidence, HeuristicsVersion version) {
  return classify_os_impl(evidence, version, nullptr);
}

OsType classify_os(const ClientEvidence& evidence, HeuristicsVersion version,
                   const RuleIndex* index) {
  return classify_os_impl(evidence, version, index);
}

bool payload_high_entropy(std::span<const std::uint8_t> payload) {
  if (payload.size() < 64) return false;
  std::array<int, 256> counts{};
  for (auto b : payload) ++counts[b];
  double entropy = 0.0;
  const double n = static_cast<double>(payload.size());
  // A short payload spread over 256 bins repeats the same small counts, so
  // memoize each count's term instead of re-running log2 per bin. Terms and
  // summation order are unchanged — the result is bit-identical.
  std::array<double, 16> term_cache{};
  std::uint16_t have_term = 0;
  for (int c : counts) {
    if (c == 0) continue;
    double term;
    if (c < 16 && (have_term & (1u << c)) != 0) {
      term = term_cache[static_cast<std::size_t>(c)];
    } else {
      const double p = static_cast<double>(c) / n;
      term = p * std::log2(p);
      if (c < 16) {
        term_cache[static_cast<std::size_t>(c)] = term;
        have_term = static_cast<std::uint16_t>(have_term | (1u << c));
      }
    }
    entropy -= term;
  }
  // Threshold accounts for small-sample bias: 256 uniform bytes measure
  // ~7.1 bits observed entropy; text and binary protocol headers sit at 4-6.
  return entropy > 6.5;
}

FlowMetadata extract_metadata(const FlowSample& sample) {
  FlowMetadata meta;
  meta.transport = sample.transport;
  meta.dst_port = sample.dst_port;

  if (!sample.dns_packet.empty()) {
    DnsMessage dns;
    if (parse_dns_into(sample.dns_packet, dns) == ParseError::kNone && !dns.questions.empty()) {
      meta.dns_hostname = dns.questions.front().qname;
    }
  }
  if (!sample.first_payload.empty()) {
    // TLS first (binary, unambiguous), then HTTP, then the entropy test.
    ClientHelloInfo hello;
    HttpRequestHead http;
    const std::string_view text(reinterpret_cast<const char*>(sample.first_payload.data()),
                                sample.first_payload.size());
    if (parse_client_hello_into(sample.first_payload, hello) == ParseError::kNone) {
      meta.saw_tls = true;
      meta.sni = hello.sni;
    } else if (parse_http_request_into(text, http) == ParseError::kNone) {
      meta.http_host = http.host;
      meta.http_content_type = http.content_type;
    } else {
      meta.high_entropy = payload_high_entropy(sample.first_payload);
    }
  }
  return meta;
}

void extract_metadata_fast_into(const FlowSample& sample, FlowMetadata& meta) {
  meta.transport = sample.transport;
  meta.dst_port = sample.dst_port;
  meta.dns_hostname.clear();
  meta.http_host.clear();
  meta.http_content_type.clear();
  meta.sni.clear();
  meta.saw_tls = false;
  meta.high_entropy = false;

  // Parser outputs are thread-local so their strings and question slots
  // keep capacity across the millions of flows one worker inspects; only
  // the fields copied into `meta` survive the call.
  thread_local DnsMessage dns_scratch;
  thread_local ClientHelloInfo hello_scratch;
  thread_local HttpRequestHead http_scratch;

  if (!sample.dns_packet.empty()) {
    if (parse_dns_into(sample.dns_packet, dns_scratch) == ParseError::kNone &&
        !dns_scratch.questions.empty()) {
      meta.dns_hostname = dns_scratch.questions.front().qname;
    }
  }
  if (!sample.first_payload.empty()) {
    const char first = static_cast<char>(sample.first_payload.front());
    if (sample.first_payload.front() == 0x16) {
      // Only a TLS record can start 0x16 (not an HTTP token char, so the
      // reference cascade's HTTP attempt is doomed anyway).
      if (parse_client_hello_into(sample.first_payload, hello_scratch) == ParseError::kNone) {
        meta.saw_tls = true;
        meta.sni = hello_scratch.sni;
      } else {
        meta.high_entropy = payload_high_entropy(sample.first_payload);
      }
    } else if (http_token_char(first) || first == ' ' || first == '\t') {
      // A parsable request line starts with a method token after optional
      // space/tab padding (which the header parser trims).
      const std::string_view text(reinterpret_cast<const char*>(sample.first_payload.data()),
                                  sample.first_payload.size());
      if (parse_http_request_into(text, http_scratch) == ParseError::kNone) {
        meta.http_host = http_scratch.host;
        meta.http_content_type = http_scratch.content_type;
      } else {
        meta.high_entropy = payload_high_entropy(sample.first_payload);
      }
    } else {
      // Neither parser can accept this first byte; straight to the test the
      // reference path would fall through to.
      meta.high_entropy = payload_high_entropy(sample.first_payload);
    }
  }
}

AppId classify_flow(const FlowSample& sample) {
  return RuleSet::standard().classify(extract_metadata(sample));
}

}  // namespace wlm::classify

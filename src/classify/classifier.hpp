// Combined client/flow classifier: OS identification from MAC OUI + DHCP
// fingerprints + User-Agent strings, and flow-to-application mapping via the
// rule engine, with packet-level metadata extraction (the Click slow path).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/ids.hpp"
#include "classify/dhcp_fingerprint.hpp"
#include "classify/os.hpp"
#include "classify/rules.hpp"

namespace wlm::classify {

class RuleIndex;

/// Heuristics revision: the paper notes device-typing improved between the
/// January 2014 and January 2015 measurement weeks, shrinking the Unknown
/// bucket (§3.2).
enum class HeuristicsVersion : std::uint8_t { k2014, k2015 };

/// Evidence accumulated for one client MAC over its flows.
struct ClientEvidence {
  MacAddress mac;
  std::vector<DhcpParams> dhcp_fingerprints;
  std::vector<std::string> user_agents;
};

/// OS decision from the available evidence. Multiple *conflicting* DHCP
/// fingerprints (dual-boot / VMs behind one MAC) force Unknown, as in the
/// paper; conflicting User-Agents alone defer to DHCP.
[[nodiscard]] OsType classify_os(const ClientEvidence& evidence,
                                 HeuristicsVersion version = HeuristicsVersion::k2015);

/// Same decision procedure with evidence lookups routed through the compiled
/// index's exact-match buckets (verdict-identical; see RuleIndex).
[[nodiscard]] OsType classify_os(const ClientEvidence& evidence, HeuristicsVersion version,
                                 const RuleIndex* index);

/// Raw packets of a flow's slow-path sample, before metadata extraction.
struct FlowSample {
  Transport transport = Transport::kTcp;
  std::uint16_t dst_port = 0;
  std::vector<std::uint8_t> dns_packet;      // the preceding DNS query, if seen
  std::vector<std::uint8_t> first_payload;   // first data packet (HTTP / TLS / raw)
};

/// Runs the real parsers over the packets to produce FlowMetadata — the
/// step the Click elements perform in the paper's data path.
[[nodiscard]] FlowMetadata extract_metadata(const FlowSample& sample);

/// Metadata-identical variant that dispatches on the first payload byte
/// (0x16 -> TLS, token/space/tab -> HTTP, else entropy) instead of running
/// the full TLS -> HTTP -> entropy cascade. Equivalence holds because a
/// parsable TLS record must start 0x16 and a parsable HTTP request line must
/// start with a token char after optional space/tab padding. Writes into a
/// caller-owned metadata object whose strings keep their capacity — the hot
/// classify loop reuses one across all flows. Every field of `meta` is
/// overwritten.
void extract_metadata_fast_into(const FlowSample& sample, FlowMetadata& meta);

/// Convenience: extract + classify.
[[nodiscard]] AppId classify_flow(const FlowSample& sample);

/// Shannon-entropy test used to flag encrypted (non-TLS) payloads.
[[nodiscard]] bool payload_high_entropy(std::span<const std::uint8_t> payload);

}  // namespace wlm::classify

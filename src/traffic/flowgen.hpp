// Flow generation: renders an (application, device) pair into the actual
// packets the classifier's slow path will inspect — a DNS query, then an
// HTTP request head or TLS ClientHello (or opaque payload for P2P and
// non-web traffic). The generator and the classifier share no tables beyond
// the app catalog, so classification is a real test, not a tautology.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "classify/apps.hpp"
#include "classify/classifier.hpp"
#include "classify/os.hpp"
#include "core/rng.hpp"

namespace wlm::traffic {

/// One generated flow: classifier input plus ground truth and byte volume.
/// The connection identifiers (src_port, dst_host) and the fragment count
/// are pure functions of values the generator already draws — adding them
/// consumed no extra RNG, so every downstream random stream is unchanged.
struct GeneratedFlow {
  classify::FlowSample sample;
  classify::AppId truth = classify::AppId::kUnclassified;
  std::uint64_t upstream_bytes = 0;
  std::uint64_t downstream_bytes = 0;
  std::uint16_t src_port = 0;   // client ephemeral port (generator counter)
  std::uint32_t dst_host = 0;   // stand-in server address (domain/port hash)
  std::uint16_t fragments = 1;  // slow-path observations of this flow (>= 1)
};

class FlowGenerator {
 public:
  explicit FlowGenerator(Rng rng) : rng_(rng) {}

  /// Builds the wire evidence for a flow of `app` from a device running
  /// `os`, carrying the given byte volume, into a caller-owned slot. The
  /// slot's payload buffers (and the generator's internal string scratch)
  /// keep their capacity across calls, so a fleet run's millions of flows
  /// reuse a handful of allocations instead of making fresh ones per flow.
  /// Every field of `out` is overwritten.
  void make_flow_into(classify::AppId app, classify::OsType os, std::uint64_t up_bytes,
                      std::uint64_t down_bytes, GeneratedFlow& out);

 private:
  Rng rng_;
  std::uint16_t next_src_port_ = 49152;  // IANA ephemeral range, wraps

  void pick_domain_into(const classify::AppInfo& info, std::string& out);

  // Scratch buffers reused across make_flow_into calls.
  std::string domain_scratch_;
  std::string host_scratch_;
  std::string http_scratch_;
};

}  // namespace wlm::traffic

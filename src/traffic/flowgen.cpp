#include "traffic/flowgen.hpp"

#include <algorithm>

#include "classify/dns.hpp"
#include "classify/http.hpp"
#include "classify/tls.hpp"
#include "classify/user_agent.hpp"

namespace wlm::traffic {

namespace {

using classify::AppId;
using classify::Category;

/// Apps that run over TLS (SNI evidence) vs plain HTTP vs raw sockets.
enum class WireStyle {
  kTls,
  kTlsOddPort,
  kHttp,
  kHttpVideo,
  kHttpAudio,
  kRawTcp,
  kRawUdp,
  kEncryptedTcp
};

WireStyle wire_style(const classify::AppInfo& info, Rng& rng) {
  switch (info.id) {
    case AppId::kMiscWeb:
      return WireStyle::kHttp;
    case AppId::kMiscSecureWeb:
      return WireStyle::kTls;
    case AppId::kEncryptedTcp:
      return WireStyle::kTlsOddPort;  // SSL on a non-web port
    case AppId::kMiscVideo:
      return WireStyle::kHttpVideo;
    case AppId::kMiscAudio:
      return WireStyle::kHttpAudio;
    case AppId::kNonWebTcp:
    case AppId::kRtmp:
    case AppId::kRemoteDesktop:
    case AppId::kWindowsFileSharing:
    case AppId::kAppleFileSharing:
    case AppId::kSteam:
      return WireStyle::kRawTcp;
    case AppId::kUdp:
      return WireStyle::kRawUdp;
    case AppId::kSkype:  // media over UDP more often than not
      return rng.chance(0.7) ? WireStyle::kRawUdp : WireStyle::kTls;
    case AppId::kBitTorrent:
      return WireStyle::kRawTcp;
    case AppId::kEncryptedP2p:
      return WireStyle::kEncryptedTcp;
    default:
      // Named web services: mostly HTTPS by 2015, some still plain HTTP.
      if (!info.domains.empty()) return rng.chance(0.7) ? WireStyle::kTls : WireStyle::kHttp;
      return WireStyle::kRawTcp;
  }
}

}  // namespace

void FlowGenerator::pick_domain_into(const classify::AppInfo& info, std::string& out) {
  out.clear();
  if (info.domains.empty()) return;
  const auto idx = static_cast<std::size_t>(
      rng_.uniform_int(0, static_cast<std::int64_t>(info.domains.size()) - 1));
  out = info.domains[idx];
  // Real clients resolve host names under the service domain.
  if (rng_.chance(0.4) && !out.starts_with("www.")) {
    static const char* kPrefixes[] = {"www", "api", "cdn", "edge", "static"};
    out.insert(0, 1, '.');
    out.insert(0, kPrefixes[rng_.uniform_int(0, 4)]);
  }
}

void FlowGenerator::make_flow_into(classify::AppId app, classify::OsType os,
                                   std::uint64_t up_bytes, std::uint64_t down_bytes,
                                   GeneratedFlow& out) {
  const auto& info = classify::app_info(app);
  out.truth = app;
  out.upstream_bytes = up_bytes;
  out.downstream_bytes = down_bytes;

  const WireStyle style = wire_style(info, rng_);
  pick_domain_into(info, domain_scratch_);
  const std::string& domain = domain_scratch_;
  const std::string_view ua =
      classify::canonical_user_agent_view(os, static_cast<unsigned>(rng_.next_u64() & 3));

  auto& s = out.sample;
  // The DNS lookup that preceded the flow: present for anything hostname-
  // based, unless the client cached it (paper: DNS is only one signal).
  s.dns_packet.clear();
  if (!domain.empty() && rng_.chance(0.8)) {
    classify::encode_dns_query_into(static_cast<std::uint16_t>(rng_.next_u64()), domain,
                                    s.dns_packet);
  }

  switch (style) {
    case WireStyle::kTls:
      s.transport = classify::Transport::kTcp;
      s.dst_port = 443;
      classify::build_client_hello_into(domain, rng_.next_u64(), s.first_payload);
      break;
    case WireStyle::kTlsOddPort:
      s.transport = classify::Transport::kTcp;
      s.dst_port = static_cast<std::uint16_t>(rng_.uniform_int(8400, 9000));
      classify::build_client_hello_into(domain, rng_.next_u64(), s.first_payload);
      break;
    case WireStyle::kHttp:
    case WireStyle::kHttpVideo:
    case WireStyle::kHttpAudio: {
      s.transport = classify::Transport::kTcp;
      s.dst_port = 80;
      const char* content_type = style == WireStyle::kHttpVideo  ? "video/mp4"
                                 : style == WireStyle::kHttpAudio ? "audio/mpeg"
                                                                  : "";
      if (domain.empty()) {
        host_scratch_ = "site-";
        host_scratch_ += std::to_string(rng_.next_u64() % 100000);
        host_scratch_ += ".example";
      } else {
        host_scratch_ = domain;
      }
      classify::build_http_request_into("GET", host_scratch_, "/", ua, content_type,
                                        http_scratch_);
      s.first_payload.assign(http_scratch_.begin(), http_scratch_.end());
      break;
    }
    case WireStyle::kRawTcp: {
      s.transport = classify::Transport::kTcp;
      if (!info.tcp_ports.empty()) {
        s.dst_port = info.tcp_ports[static_cast<std::size_t>(
            rng_.uniform_int(0, static_cast<std::int64_t>(info.tcp_ports.size()) - 1))];
      } else {
        s.dst_port = static_cast<std::uint16_t>(rng_.uniform_int(1024, 65000));
      }
      // Low-entropy binary preamble (protocol magic + zeros).
      s.first_payload.assign(96, 0);
      s.first_payload[0] = 0x13;
      break;
    }
    case WireStyle::kRawUdp: {
      s.transport = classify::Transport::kUdp;
      if (!info.udp_ports.empty()) {
        s.dst_port = info.udp_ports[static_cast<std::size_t>(
            rng_.uniform_int(0, static_cast<std::int64_t>(info.udp_ports.size()) - 1))];
      } else {
        s.dst_port = static_cast<std::uint16_t>(rng_.uniform_int(1024, 65000));
      }
      s.first_payload.assign(64, 0xAB);
      break;
    }
    case WireStyle::kEncryptedTcp: {
      s.transport = classify::Transport::kTcp;
      s.dst_port = static_cast<std::uint16_t>(rng_.uniform_int(20000, 65000));
      // High-entropy payload: every byte pseudo-random.
      s.first_payload.resize(256);
      for (auto& b : s.first_payload) b = static_cast<std::uint8_t>(rng_.next_u64());
      break;
    }
  }

  out.src_port = next_src_port_;
  next_src_port_ = next_src_port_ == 65535 ? 49152 : static_cast<std::uint16_t>(next_src_port_ + 1);
  // FNV-1a over the destination name, salted with port and transport so
  // port-only flows still get distinct server addresses.
  std::uint32_t host_hash = 2166136261u;
  for (const char c : domain) host_hash = (host_hash ^ static_cast<std::uint8_t>(c)) * 16777619u;
  host_hash ^= (static_cast<std::uint32_t>(s.dst_port) << 16) |
               (s.transport == classify::Transport::kUdp ? 1u : 0u);
  out.dst_host = host_hash;
  // One slow-path observation per 2 MiB of volume models the flow's later
  // packets hitting the AP after the verdict is pinned; capped so a single
  // giant flow cannot dominate a shard's classification work.
  out.fragments = static_cast<std::uint16_t>(
      1 + std::min<std::uint64_t>(6, (up_bytes + down_bytes) >> 21));
}

}  // namespace wlm::traffic

// Differential harness: the compiled RuleIndex + VerdictCache fast path
// must be verdict-identical to the linear engine on every input — per-flow,
// per-fragment and per-evidence-lookup. The reference,
// RuleSet::standard().classify(extract_metadata(sample)), is the oracle;
// any divergence is a fast-path bug by definition.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "classify/classifier.hpp"
#include "classify/dhcp_fingerprint.hpp"
#include "classify/rule_index.hpp"
#include "classify/rules.hpp"
#include "classify/user_agent.hpp"
#include "classify/verdict_cache.hpp"
#include "core/rng.hpp"
#include "traffic/flowgen.hpp"

namespace wlm::classify {
namespace {

void expect_metadata_equal(const FlowMetadata& a, const FlowMetadata& b,
                           const std::string& context) {
  EXPECT_EQ(a.transport, b.transport) << context;
  EXPECT_EQ(a.dst_port, b.dst_port) << context;
  EXPECT_EQ(a.dns_hostname, b.dns_hostname) << context;
  EXPECT_EQ(a.http_host, b.http_host) << context;
  EXPECT_EQ(a.http_content_type, b.http_content_type) << context;
  EXPECT_EQ(a.sni, b.sni) << context;
  EXPECT_EQ(a.saw_tls, b.saw_tls) << context;
  EXPECT_EQ(a.high_entropy, b.high_entropy) << context;
}

class SeededDiff : public ::testing::TestWithParam<std::uint64_t> {};

// The core sweep: >= 20k generated flows per seed (5 seeds = >= 100k total),
// every app x OS combination, real wire bytes. Checks three layers at once:
// metadata extraction, the stateless rule match, and the stateful two-tier
// classifier against the reference verdict on every fragment.
TEST_P(SeededDiff, GeneratedFlowsClassifyIdentically) {
  const std::uint64_t seed = GetParam();
  traffic::FlowGenerator gen{Rng{seed}};
  Rng volumes{seed ^ 0xD1FFULL};

  const auto& catalog = app_catalog();
  const auto& reference = RuleSet::standard();
  const auto& index = RuleIndex::standard();
  TwoTierClassifier fast(/*cache_capacity=*/1024);
  traffic::GeneratedFlow flow;
  FlowMetadata fast_meta;

  constexpr int kFlowsPerSeed = 20'000;
  int flows = 0;
  std::uint64_t fragments = 0;
  std::uint32_t salt = 0;
  while (flows < kFlowsPerSeed) {
    for (const auto& app : catalog) {
      if (flows >= kFlowsPerSeed) break;
      const auto os = static_cast<OsType>(flows % kOsTypeCount);
      const auto up = volumes.next_u64() % (8u << 20);
      const auto down = volumes.next_u64() % (64u << 20);
      gen.make_flow_into(app.id, os, up, down, flow);
      ++flows;
      ++salt;

      const FlowMetadata ref_meta = extract_metadata(flow.sample);
      extract_metadata_fast_into(flow.sample, fast_meta);
      const std::string context = "seed=" + std::to_string(seed) +
                                  " app=" + std::string(app.name) + " flow=" +
                                  std::to_string(flows);
      expect_metadata_equal(ref_meta, fast_meta, context);

      const AppId ref_verdict = reference.classify(ref_meta);
      ASSERT_EQ(index.classify(ref_meta), ref_verdict) << context;

      // Fragment-by-fragment: every verdict, cached or not, must equal the
      // reference's (extract_metadata is pure, so one reparse stands for
      // every fragment).
      const FlowKey key{0x00112233'44550000ULL + salt, salt % 7, flow.dst_host,
                        flow.src_port, flow.sample.dst_port,
                        flow.sample.transport == Transport::kUdp ? std::uint8_t{17}
                                                                 : std::uint8_t{6}};
      for (std::uint16_t frag = 0; frag < flow.fragments; ++frag) {
        ASSERT_EQ(fast.classify(key, flow.sample), ref_verdict) << context << " frag=" << frag;
      }
      fragments += flow.fragments;
    }
  }

  // The sweep must actually have exercised the cache fast path.
  EXPECT_GT(fast.cache().stats().hits, 0u);
  EXPECT_LT(fast.slow_path_calls(), fragments);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeededDiff,
                         ::testing::Values(1ULL, 7ULL, 42ULL, 1337ULL, 2015ULL));

// Every port x transport: the dispatch tables against the linear scan,
// via the only public entry point (classify with port-only metadata).
TEST(RuleIndexDiff, PortTablesMatchLinearScanExhaustively) {
  const auto& reference = RuleSet::standard();
  const auto& index = RuleIndex::standard();
  for (int t = 0; t < 2; ++t) {
    const Transport transport = t == 0 ? Transport::kTcp : Transport::kUdp;
    for (std::uint32_t port = 0; port <= 65535; ++port) {
      FlowMetadata meta;
      meta.transport = transport;
      meta.dst_port = static_cast<std::uint16_t>(port);
      ASSERT_EQ(index.classify(meta), reference.classify(meta))
          << "transport=" << t << " port=" << port;
    }
  }
}

// Hostname edge cases around the suffix trie: nested suffixes, lookalike
// non-matches, label-boundary traps, empty and degenerate names.
TEST(RuleIndexDiff, DomainTrieMatchesLinearScanOnEdgeCases) {
  const auto& reference = RuleSet::standard();
  const auto& index = RuleIndex::standard();

  std::vector<std::string> hosts;
  for (const auto& app : app_catalog()) {
    for (const auto& d : app.domains) {
      const std::string base(d);
      hosts.push_back(base);
      hosts.push_back("www." + base);
      hosts.push_back("deep.nested.cdn." + base);
      hosts.push_back("not" + base);       // byte suffix, not a label suffix
      hosts.push_back(base + ".evil.example");
      hosts.push_back("." + base);
      hosts.push_back(base + ".");
      if (const auto dot = base.find('.'); dot != std::string::npos) {
        hosts.push_back(base.substr(dot + 1));  // parent zone only
      }
    }
  }
  hosts.insert(hosts.end(), {"", ".", "..", "localhost", "a", "com",
                             "x.y.z.w.v.u.t.s.r.q", std::string(300, 'a') + ".com"});

  for (const auto& host : hosts) {
    FlowMetadata meta;
    meta.dst_port = 443;
    meta.sni = host;
    ASSERT_EQ(index.classify(meta), reference.classify(meta)) << "host='" << host << "'";
  }
}

// Evidence buckets: exact hits and fallback scans agree with the reference
// matchers for every canonical and mutated User-Agent / DHCP fingerprint.
TEST(RuleIndexDiff, EvidenceBucketsMatchReferenceMatchers) {
  const auto& index = RuleIndex::standard();
  for (int i = 0; i < kOsTypeCount; ++i) {
    const auto os = static_cast<OsType>(i);
    for (unsigned variant = 0; variant < 6; ++variant) {
      const std::string ua = canonical_user_agent(os, variant);
      EXPECT_EQ(index.os_from_user_agent(ua), os_from_user_agent(ua))
          << "os=" << i << " variant=" << variant;
      EXPECT_EQ(index.os_from_user_agent(ua + " (modified)"),
                os_from_user_agent(ua + " (modified)"));
    }
    const DhcpParams params = canonical_dhcp_params(os);
    EXPECT_EQ(index.os_from_dhcp(params), os_from_dhcp(params)) << "os=" << i;
    DhcpParams extended = params;
    extended.push_back(252);  // vendor suffix: exercises the prefix fallback
    EXPECT_EQ(index.os_from_dhcp(extended), os_from_dhcp(extended)) << "os=" << i;
    if (!params.empty()) {
      DhcpParams truncated(params.begin(), params.end() - 1);
      EXPECT_EQ(index.os_from_dhcp(truncated), os_from_dhcp(truncated)) << "os=" << i;
    }
  }
  EXPECT_EQ(index.os_from_user_agent(""), os_from_user_agent(""));
  EXPECT_EQ(index.os_from_dhcp({}), os_from_dhcp({}));
}

// classify_os routed through the index must equal the plain decision for
// randomized evidence mixes (including the conflict -> Unknown paths).
TEST(RuleIndexDiff, ClassifyOsWithIndexMatchesWithout) {
  Rng rng{99991};
  const auto& index = RuleIndex::standard();
  for (int trial = 0; trial < 2'000; ++trial) {
    ClientEvidence evidence;
    evidence.mac = MacAddress::from_u64(rng.next_u64() & 0xFFFFFFFFFFFFULL);
    const int fingerprints = static_cast<int>(rng.uniform_int(0, 2));
    for (int f = 0; f < fingerprints; ++f) {
      const auto os = static_cast<OsType>(rng.uniform_int(0, kOsTypeCount - 1));
      auto params = canonical_dhcp_params(os);
      if (rng.chance(0.3)) params.push_back(static_cast<std::uint8_t>(rng.next_u64()));
      evidence.dhcp_fingerprints.push_back(std::move(params));
    }
    const int uas = static_cast<int>(rng.uniform_int(0, 3));
    for (int u = 0; u < uas; ++u) {
      const auto os = static_cast<OsType>(rng.uniform_int(0, kOsTypeCount - 1));
      evidence.user_agents.push_back(
          canonical_user_agent(os, static_cast<unsigned>(rng.next_u64() & 3)));
    }
    for (const auto version : {HeuristicsVersion::k2014, HeuristicsVersion::k2015}) {
      ASSERT_EQ(classify_os(evidence, version, &index), classify_os(evidence, version))
          << "trial=" << trial;
    }
  }
}

}  // namespace
}  // namespace wlm::classify

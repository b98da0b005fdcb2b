// Differential test of tsdb::build_dict against the sort + unique +
// lower_bound dictionary it replaced. The segment writer's bytes depend on
// both outputs (the ascending dictionary and each row's exact rank), so
// they must agree on every input, including the ones a hash table finds
// awkward: keys that share a slot, and the f64 bit patterns the RSSI
// columns carry.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/rng.hpp"
#include "tsdb/segment.hpp"
#include "wire/messages.hpp"

namespace wlm {
namespace {

struct Coded {
  std::vector<std::uint64_t> dict;
  std::vector<std::uint32_t> ranks;
  bool operator==(const Coded&) const = default;
};

Coded reference(const std::vector<std::uint64_t>& col) {
  Coded out;
  out.dict = col;
  std::sort(out.dict.begin(), out.dict.end());
  out.dict.erase(std::unique(out.dict.begin(), out.dict.end()), out.dict.end());
  for (const std::uint64_t v : col) {
    out.ranks.push_back(static_cast<std::uint32_t>(
        std::lower_bound(out.dict.begin(), out.dict.end(), v) - out.dict.begin()));
  }
  return out;
}

Coded built(const std::vector<std::uint64_t>& col) {
  Coded out;
  EXPECT_TRUE(tsdb::build_dict(col, out.dict, out.ranks));
  return out;
}

void expect_matches_reference(const std::vector<std::uint64_t>& col) {
  EXPECT_EQ(built(col), reference(col)) << "rows " << col.size();
}

TEST(BuildDict, EmptyColumn) {
  std::vector<std::uint64_t> dict{7};
  std::vector<std::uint32_t> ranks{7};
  EXPECT_TRUE(tsdb::build_dict({}, dict, ranks));
  EXPECT_TRUE(dict.empty());
  EXPECT_TRUE(ranks.empty());
}

TEST(BuildDict, OneRow) { expect_matches_reference({42}); }

TEST(BuildDict, AllEqual) { expect_matches_reference(std::vector<std::uint64_t>(1000, 9)); }

TEST(BuildDict, AllDistinctInEveryOrder) {
  std::vector<std::uint64_t> ascending(5000);
  for (std::size_t i = 0; i < ascending.size(); ++i) ascending[i] = i * 3 + 1;
  expect_matches_reference(ascending);
  std::vector<std::uint64_t> descending(ascending.rbegin(), ascending.rend());
  expect_matches_reference(descending);
  Rng rng(11);
  std::vector<std::uint64_t> shuffled = ascending;
  for (std::size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1], shuffled[rng.next_u64() % i]);
  }
  expect_matches_reference(shuffled);
}

TEST(BuildDict, ExtremeValues) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  expect_matches_reference({kMax, 0, kMax, 0, 0, kMax});
  expect_matches_reference({0});
  expect_matches_reference({kMax});
  expect_matches_reference({kMax - 1, kMax, 1, 0});
}

TEST(BuildDict, DenseColumnsRankThroughTheDirectTable) {
  // Values spanning less than about twice the row count skip the hash.
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  Rng rng(7);
  for (const std::uint64_t lo : {std::uint64_t{0}, std::uint64_t{1'000'000}, kMax - 300}) {
    for (const std::uint64_t span : {std::uint64_t{1}, std::uint64_t{64}, std::uint64_t{300}}) {
      std::vector<std::uint64_t> col(150);
      for (auto& v : col) v = lo + rng.next_u64() % (span + 1);
      expect_matches_reference(col);
    }
  }
  std::vector<std::uint64_t> dense(100);
  for (std::size_t i = 0; i < dense.size(); ++i) dense[i] = (i * 37) % 100;
  std::vector<std::uint64_t> dict;
  std::vector<std::uint32_t> ranks;
  EXPECT_FALSE(tsdb::build_dict(dense, dict, ranks, 99));
  EXPECT_TRUE(tsdb::build_dict(dense, dict, ranks, 100));
}

TEST(BuildDict, KeysThatShareAHashSlot) {
  // Keys whose hashes agree in their low 12 bits share a home slot at every
  // table size up to 4096 slots, so each insert and lookup walks a probe
  // chain through all the keys before it.
  const std::uint64_t target = tsdb::dict_hash(0) & 0xfff;
  std::vector<std::uint64_t> keys{0};
  for (std::uint64_t v = 1; keys.size() < 48; ++v) {
    if ((tsdb::dict_hash(v) & 0xfff) == target) keys.push_back(v);
  }
  std::vector<std::uint64_t> col;
  for (int pass = 0; pass < 3; ++pass) {
    for (std::size_t i = 0; i < keys.size(); ++i) {
      col.push_back(keys[(i * 7 + static_cast<std::size_t>(pass)) % keys.size()]);
    }
  }
  expect_matches_reference(col);
}

TEST(BuildDict, F64BitPatterns) {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  const double nan = std::numeric_limits<double>::quiet_NaN();
  // +0.0 and -0.0 compare equal as doubles but are distinct patterns, and
  // a NaN never equals itself as a double: the dictionary is over bits.
  std::vector<std::uint64_t> col = {bits(0.0),   bits(-0.0), bits(nan),    bits(-nan),
                                    bits(-67.5), bits(0.0),  bits(-0.0),   bits(nan),
                                    bits(-67.5), bits(-90),  bits(-30.25), bits(-67.5)};
  const Coded coded = built(col);
  EXPECT_EQ(coded, reference(col));
  EXPECT_EQ(coded.dict.size(), 7u);
}

TEST(BuildDict, RandomColumnsOfEveryCardinality) {
  Rng rng(2015);
  for (const std::uint64_t distinct : {1u, 2u, 3u, 17u, 255u, 256u, 4096u, 70000u}) {
    std::vector<std::uint64_t> pool(distinct);
    for (auto& v : pool) v = rng.next_u64() >> (rng.next_u64() % 64);
    std::vector<std::uint64_t> col(20000);
    for (auto& v : col) v = pool[rng.next_u64() % distinct];
    expect_matches_reference(col);
  }
}

TEST(BuildDict, StopsPastTheDistinctLimit) {
  std::vector<std::uint64_t> col;
  for (std::uint64_t v = 0; v < tsdb::kMaxF64Dict + 1; ++v) col.push_back(v * 1000003);
  std::vector<std::uint64_t> dict;
  std::vector<std::uint32_t> ranks;
  EXPECT_FALSE(tsdb::build_dict(col, dict, ranks, tsdb::kMaxF64Dict));
  expect_matches_reference(col);
  col.pop_back();
  Coded at_limit;
  EXPECT_TRUE(tsdb::build_dict(col, at_limit.dict, at_limit.ranks, tsdb::kMaxF64Dict));
  EXPECT_EQ(at_limit, reference(col));
}

/// One report whose neighbor rows carry `distinct` different RSSI values.
std::vector<std::uint8_t> seal_rssi(std::size_t distinct, wire::ApReport& report) {
  report = {};
  report.ap_id = 5;
  for (std::size_t i = 0; i < distinct; ++i) {
    wire::NeighborBss nbr;
    nbr.bssid = MacAddress::from_u64(0x88154E000000ULL + i % 3);
    nbr.rssi_dbm = -30.0 - static_cast<double>(i) / 64.0;
    report.neighbors.push_back(nbr);
  }
  tsdb::SegmentWriter writer(1, 0);
  writer.add(report);
  return writer.seal();
}

TEST(BuildDict, RssiEitherSideOfTheDictLimitRoundTrips) {
  // At the limit the RSSI column seals as a dictionary; one value past it,
  // as fixed64 words.
  wire::ApReport at_limit, past_limit;
  const auto dict_bytes = seal_rssi(tsdb::kMaxF64Dict, at_limit);
  const auto raw_bytes = seal_rssi(tsdb::kMaxF64Dict + 1, past_limit);
  for (const auto& [bytes, report] :
       {std::pair{&dict_bytes, &at_limit}, std::pair{&raw_bytes, &past_limit}}) {
    std::vector<wire::ApReport> decoded;
    ASSERT_FALSE(tsdb::SegmentReader::for_each(
        *bytes, [&](wire::ApReport&& r) { decoded.push_back(std::move(r)); }));
    ASSERT_EQ(decoded.size(), 1u);
    EXPECT_EQ(decoded[0], *report);
  }
}

}  // namespace
}  // namespace wlm

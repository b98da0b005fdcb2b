// VerdictCache against a reference: the node-based cache (an unordered_map
// plus a deque of keys in FIFO order) the flat one replaced. Seeded random
// record/lookup sequences drive both, and after every call the lookup
// results, stats(), size() and snapshot() must agree.
#include "classify/verdict_cache.hpp"

#include <gtest/gtest.h>

#include <deque>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/rng.hpp"

namespace wlm::classify {
namespace {

/// The reference: the same FIFO cache keyed through a node map, with a
/// copy of every key in insertion order.
class ReferenceCache {
 public:
  ReferenceCache(std::size_t capacity, std::uint32_t slow_fragments)
      : capacity_(std::max<std::size_t>(capacity, 1)),
        slow_fragments_(std::max<std::uint32_t>(slow_fragments, 1)) {}

  std::optional<AppId> lookup(const FlowKey& key) {
    const auto it = entries_.find(key);
    if (it != entries_.end() && it->second.slow_seen >= slow_fragments_) {
      ++stats_.hits;
      return it->second.verdict;
    }
    ++stats_.misses;
    return std::nullopt;
  }

  void record(const FlowKey& key, AppId verdict) {
    auto it = entries_.find(key);
    if (it == entries_.end()) {
      if (entries_.size() >= capacity_) {
        entries_.erase(fifo_.front());
        fifo_.pop_front();
        ++stats_.evictions;
      }
      it = entries_.emplace(key, Entry{}).first;
      fifo_.push_back(key);
    }
    it->second.verdict = verdict;
    if (it->second.slow_seen < slow_fragments_ && ++it->second.slow_seen == slow_fragments_) {
      ++stats_.pinned;
    }
  }

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] const VerdictCache::Stats& stats() const { return stats_; }

  [[nodiscard]] std::vector<VerdictCache::SavedEntry> snapshot() const {
    std::vector<VerdictCache::SavedEntry> out;
    for (const auto& key : fifo_) {
      const auto& e = entries_.at(key);
      out.push_back({key, e.verdict, e.slow_seen});
    }
    return out;
  }

 private:
  struct Entry {
    AppId verdict = AppId::kUnclassified;
    std::uint32_t slow_seen = 0;
  };
  std::size_t capacity_;
  std::uint32_t slow_fragments_;
  std::unordered_map<FlowKey, Entry, FlowKeyHash> entries_;
  std::deque<FlowKey> fifo_;
  VerdictCache::Stats stats_;
};

FlowKey random_key(Rng& rng) {
  FlowKey k;
  k.client_mac = rng.next_u64() & 0xFFFFFFFFFFFFULL;
  k.src_addr = static_cast<std::uint32_t>(rng.next_u64());
  k.dst_addr = static_cast<std::uint32_t>(rng.next_u64());
  k.src_port = static_cast<std::uint16_t>(rng.next_u64());
  k.dst_port = static_cast<std::uint16_t>(rng.next_u64());
  k.protocol = rng.chance(0.5) ? 6 : 17;
  return k;
}

/// Distinct keys whose hashes share their low 14 bits, so they land on
/// one probe chain in any index of up to 16384 slots.
std::vector<FlowKey> colliding_keys(Rng& rng, std::size_t n) {
  constexpr std::size_t kMask = (std::size_t{1} << 14) - 1;
  const FlowKey first = random_key(rng);
  const std::size_t target = FlowKeyHash{}(first) & kMask;
  std::vector<FlowKey> out{first};
  while (out.size() < n) {
    const FlowKey k = random_key(rng);
    if ((FlowKeyHash{}(k) & kMask) == target) out.push_back(k);
  }
  return out;
}

AppId random_verdict(Rng& rng) {
  return static_cast<AppId>(rng.uniform_int(0, static_cast<std::int64_t>(AppId::kXboxLive)));
}

void expect_same_entries(const std::vector<VerdictCache::SavedEntry>& got,
                         const std::vector<VerdictCache::SavedEntry>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].key, want[i].key) << "FIFO position " << i;
    ASSERT_EQ(got[i].verdict, want[i].verdict) << "FIFO position " << i;
    ASSERT_EQ(got[i].slow_seen, want[i].slow_seen) << "FIFO position " << i;
  }
}

void expect_same_state(const VerdictCache& cache, const ReferenceCache& ref) {
  ASSERT_EQ(cache.stats(), ref.stats());
  ASSERT_EQ(cache.size(), ref.size());
  expect_same_entries(cache.snapshot(), ref.snapshot());
}

struct Params {
  std::size_t capacity;
  std::uint32_t slow_fragments;
  std::uint64_t seed;
};

/// Drives a VerdictCache and the reference through one seeded sequence of
/// classify-style lookup-then-record calls, bare records and bare lookups.
/// Four calls in ten repeat the previous key, as a flow's later fragments
/// do; the rest draw from a pool of eight keys per entry, a quarter of them
/// from one shared probe chain. Snapshot -> restore round trips run at the
/// midpoint and once the ring has wrapped past a third of its length.
void drive(const Params& p) {
  SCOPED_TRACE(::testing::Message() << "capacity=" << p.capacity
                                    << " slow_fragments=" << p.slow_fragments
                                    << " seed=" << p.seed);
  Rng rng(p.seed);
  std::vector<FlowKey> pool;
  for (std::size_t i = 0; i < 8 * p.capacity + 8; ++i) pool.push_back(random_key(rng));
  const std::vector<FlowKey> chain = colliding_keys(rng, 48);

  VerdictCache cache(p.capacity, p.slow_fragments);
  ReferenceCache ref(p.capacity, p.slow_fragments);
  const std::size_t ops = std::max<std::size_t>(600, 4 * p.capacity);
  bool wrapped_round_trip = false;
  FlowKey key = pool.front();
  for (std::size_t op = 0; op < ops; ++op) {
    if (!rng.chance(0.4)) {
      const auto& from = rng.chance(0.25) ? chain : pool;
      key = from[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(from.size()) - 1))];
    }
    const double kind = rng.uniform();
    if (kind < 0.5) {
      const auto got = cache.lookup(key);
      ASSERT_EQ(got, ref.lookup(key)) << "op " << op;
      if (!got) {
        const AppId verdict = random_verdict(rng);
        cache.record(key, verdict);
        ref.record(key, verdict);
      }
    } else if (kind < 0.8) {
      const AppId verdict = random_verdict(rng);
      cache.record(key, verdict);
      ref.record(key, verdict);
    } else {
      ASSERT_EQ(cache.lookup(key), ref.lookup(key)) << "op " << op;
    }
    ASSERT_NO_FATAL_FAILURE(expect_same_state(cache, ref)) << "op " << op;

    const bool wrapped = !wrapped_round_trip && ref.stats().evictions > p.capacity / 3;
    if (op == ops / 2 || wrapped) {
      wrapped_round_trip = wrapped_round_trip || wrapped;
      // Into a fresh cache, which replaces the one under test ...
      VerdictCache fresh(p.capacity, p.slow_fragments);
      ASSERT_TRUE(fresh.restore(cache.snapshot(), cache.stats()));
      ASSERT_NO_FATAL_FAILURE(expect_same_state(fresh, ref)) << "op " << op;
      cache = std::move(fresh);
      // ... and over a live one, which must forget what it held.
      VerdictCache overwritten(p.capacity, p.slow_fragments);
      overwritten.record(random_key(rng), AppId::kMiscWeb);
      ASSERT_TRUE(overwritten.restore(cache.snapshot(), cache.stats()));
      ASSERT_NO_FATAL_FAILURE(expect_same_state(overwritten, ref)) << "op " << op;
    }
  }
  EXPECT_GT(ref.stats().hits, 0u);
  EXPECT_TRUE(wrapped_round_trip);
}

TEST(VerdictCache, MatchesReferenceOnSeededSequences) {
  std::uint64_t seed = 29;
  for (const std::size_t capacity : {std::size_t{1}, std::size_t{3}, std::size_t{64}}) {
    for (std::uint32_t slow = 1; slow <= 3; ++slow) {
      for (int rep = 0; rep < 3; ++rep) {
        ASSERT_NO_FATAL_FAILURE(drive({capacity, slow, seed++}));
      }
    }
  }
}

TEST(VerdictCache, MatchesReferenceAtDefaultCapacity) {
  ASSERT_NO_FATAL_FAILURE(drive({VerdictCache::kDefaultCapacity, 2, 4096}));
}

TEST(VerdictCache, ZeroCapacityHoldsOneEntry) {
  VerdictCache cache(0, 0);
  EXPECT_EQ(cache.capacity(), 1u);
  EXPECT_EQ(cache.slow_fragments(), 1u);
  const FlowKey a{1, 2, 3, 4, 5, 6};
  const FlowKey b{7, 8, 9, 10, 11, 17};
  cache.record(a, AppId::kMiscWeb);
  cache.record(b, AppId::kXboxLive);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.lookup(a), std::nullopt);
  EXPECT_EQ(cache.lookup(b), AppId::kXboxLive);
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(VerdictCache, RestoreRefusesADuplicatedFlowAndLeavesTheCacheAsItWas) {
  VerdictCache cache(4, 1);
  const FlowKey a{1, 2, 3, 4, 5, 6};
  const FlowKey b{7, 8, 9, 10, 11, 17};
  cache.record(b, AppId::kXboxLive);
  const auto before = cache.snapshot();
  const VerdictCache::Stats forged{9, 9, 9, 9};
  EXPECT_FALSE(cache.restore({{a, AppId::kMiscWeb, 1}, {a, AppId::kMiscWeb, 1}}, forged));
  EXPECT_FALSE(cache.restore({{a, AppId::kMiscWeb, 1}, {b, AppId::kMiscWeb, 1},
                              {a, AppId::kXboxLive, 1}},
                             forged));
  EXPECT_EQ(cache.stats(), (VerdictCache::Stats{0, 0, 0, 1}));
  expect_same_entries(cache.snapshot(), before);
  // The refused restores left nothing behind for evictions to trip over.
  for (std::uint64_t mac = 100; mac < 112; ++mac) cache.record({mac, 1, 2, 3, 4, 6}, AppId::kMiscWeb);
  EXPECT_EQ(cache.size(), 4u);
  EXPECT_EQ(cache.stats().evictions, 9u);
}

TEST(VerdictCache, RestoreRefusesMoreEntriesThanTheCapacity) {
  VerdictCache cache(2, 1);
  std::vector<VerdictCache::SavedEntry> entries;
  for (std::uint64_t mac = 1; mac <= 3; ++mac) {
    entries.push_back({{mac, 1, 2, 3, 4, 6}, AppId::kMiscWeb, 1});
  }
  EXPECT_FALSE(cache.restore(entries, {}));
  EXPECT_EQ(cache.size(), 0u);
  entries.pop_back();
  EXPECT_TRUE(cache.restore(entries, {}));
  EXPECT_EQ(cache.size(), 2u);
}

TEST(VerdictCache, HoldsAtMost48HeapBytesPerEntryWhenFull) {
  VerdictCache cache;
  EXPECT_EQ(cache.heap_bytes(), 0u) << "allocated before the first record()";
  Rng rng(48);
  const std::size_t n = VerdictCache::kDefaultCapacity;
  for (std::size_t i = 0; i < n; ++i) cache.record(random_key(rng), AppId::kMiscWeb);
  ASSERT_EQ(cache.size(), n);
  EXPECT_LE(cache.heap_bytes(), 48 * n);
  EXPECT_GE(cache.heap_bytes(), n * sizeof(VerdictCache::SavedEntry));
  // Turning over and restoring a full ring keeps the bound.
  for (std::size_t i = 0; i < n / 2; ++i) cache.record(random_key(rng), AppId::kMiscWeb);
  VerdictCache restored;
  ASSERT_TRUE(restored.restore(cache.snapshot(), cache.stats()));
  EXPECT_LE(restored.heap_bytes(), 48 * n);
  EXPECT_LE(cache.heap_bytes(), 48 * n);
}

}  // namespace
}  // namespace wlm::classify

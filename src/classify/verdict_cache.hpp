// Per-flow verdict cache — the fast-path tier of the two-tier classifier.
//
// The paper's Click pipeline classifies a flow's first packets in the slow
// path, then pins the verdict in a flow cache so subsequent packets are
// attributed without reparsing (§2.1). VerdictCache mirrors that: keyed by
// (client MAC, 5-tuple), bounded, FIFO-evicted, and deterministic — a miss
// merely re-runs the slow path, which returns the same verdict for the same
// sample, so byte-level attribution is invariant to capacity.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "classify/apps.hpp"
#include "classify/classifier.hpp"
#include "classify/rule_index.hpp"

namespace wlm::classify {

/// Identifies one flow: the client and the connection 5-tuple.
struct FlowKey {
  std::uint64_t client_mac = 0;  // MacAddress::to_u64()
  std::uint32_t src_addr = 0;
  std::uint32_t dst_addr = 0;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint8_t protocol = 6;  // IPPROTO_TCP / IPPROTO_UDP

  [[nodiscard]] bool operator==(const FlowKey&) const = default;
};

struct FlowKeyHash {
  [[nodiscard]] std::size_t operator()(const FlowKey& k) const {
    // splitmix64-style mix over the packed fields; quality matters only for
    // probe-chain length, not determinism (values never leave the process).
    auto mix = [](std::uint64_t x) {
      x += 0x9e3779b97f4a7c15ULL;
      x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
      x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
      return x ^ (x >> 31);
    };
    const std::uint64_t a = mix(k.client_mac);
    const std::uint64_t b =
        mix((std::uint64_t{k.src_addr} << 32) | k.dst_addr) ^
        mix((std::uint64_t{k.src_port} << 24) | (std::uint64_t{k.dst_port} << 8) | k.protocol);
    return static_cast<std::size_t>(a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2)));
  }
};

/// Flat layout (DESIGN.md §4e): the entries sit in one ring vector in FIFO
/// order, and an open-addressing index of ring positions finds one by key.
/// Nothing is allocated before the first record().
class VerdictCache {
 public:
  static constexpr std::size_t kDefaultCapacity = 4096;
  /// Ring positions travel as u32 in the index.
  static constexpr std::size_t kMaxCapacity = std::size_t{1} << 31;

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t pinned = 0;  // entries that completed their slow-path quota

    [[nodiscard]] bool operator==(const Stats&) const = default;
  };

  /// `slow_fragments` is the number of fragments a flow must take through
  /// the slow path before its verdict is pinned (the paper's "first N
  /// packets"); until then every lookup is a miss. `capacity` is clamped to
  /// [1, kMaxCapacity].
  explicit VerdictCache(std::size_t capacity = kDefaultCapacity, std::uint32_t slow_fragments = 1);

  /// Pinned verdict for the flow, or nullopt (counts a hit or a miss).
  [[nodiscard]] std::optional<AppId> lookup(const FlowKey& key);

  /// Records a slow-path verdict for the flow; pins it once the flow has
  /// been seen `slow_fragments` times. Evicts FIFO when at capacity.
  void record(const FlowKey& key, AppId verdict);

  [[nodiscard]] std::size_t size() const { return ring_.size(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::uint32_t slow_fragments() const { return slow_fragments_; }
  [[nodiscard]] const Stats& stats() const { return stats_; }
  /// Heap bytes held, from the ring's and the index's capacities.
  [[nodiscard]] std::size_t heap_bytes() const {
    return ring_.capacity() * sizeof(SavedEntry) + index_.capacity() * sizeof(std::uint32_t);
  }

  /// One cached flow: a ring slot, and the checkpoint's entry.
  struct SavedEntry {
    FlowKey key;
    AppId verdict = AppId::kUnclassified;
    std::uint32_t slow_seen = 0;
  };
  /// Checkpoint support: entries in FIFO (insertion) order.
  [[nodiscard]] std::vector<SavedEntry> snapshot() const;
  /// Rebuilds the cache from a snapshot (entries in FIFO order). Returns
  /// false, leaving the cache as it was, when a flow is listed twice or
  /// there are more entries than the capacity.
  [[nodiscard]] bool restore(const std::vector<SavedEntry>& entries, const Stats& stats);

 private:
  static constexpr std::uint32_t kEmpty = 0xFFFFFFFFu;  // an index slot with no entry
  static constexpr std::size_t kMinSlots = 16;  // smallest ring or index allocation

  /// The index slot holding `key`, or the empty slot that ends its chain.
  /// Requires a nonempty index.
  [[nodiscard]] std::size_t probe(const FlowKey& key) const;
  /// Replaces the index with one of at least 2 * `entries` slots (load at
  /// most 1/2) over the ring; false if two ring slots hold one key.
  [[nodiscard]] bool rebuild_index(std::size_t entries);
  /// Empties index slot `hole` by shifting the rest of its chain back.
  void erase_index(std::size_t hole);

  std::size_t capacity_;
  std::uint32_t slow_fragments_;
  std::vector<SavedEntry> ring_;      // FIFO order from head_; grows to capacity_
  std::size_t head_ = 0;              // the oldest entry, once the ring is full
  std::vector<std::uint32_t> index_;  // ring positions, linear probing; size 2^k
  Stats stats_;
};

/// Wall-clock profile of slow-path invocations. Lives OUTSIDE the
/// deterministic telemetry registry on purpose: registry exports must be
/// bit-identical across --jobs, and nanoseconds are not. The bench harness
/// reads this directly into BENCH_classify.json.
struct SlowPathProfile {
  static constexpr std::size_t kBuckets = 20;  // log2(ns) buckets: [2^i, 2^(i+1))

  std::array<std::uint64_t, kBuckets> buckets{};
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;

  void record(std::uint64_t ns);
  [[nodiscard]] double mean_ns() const {
    return count == 0 ? 0.0 : static_cast<double>(total_ns) / static_cast<double>(count);
  }
};

/// The two-tier classifier: slow path (parse + compiled rule match) plus the
/// verdict cache fast path. Its verdicts equal
/// RuleSet::standard().classify(extract_metadata(sample)), the linear
/// reference the differential tests call directly.
class TwoTierClassifier {
 public:
  explicit TwoTierClassifier(std::size_t cache_capacity = VerdictCache::kDefaultCapacity);

  /// Classifies one observed fragment of the flow: a cached verdict, or a
  /// slow-path pass (parse + compiled rule match) whose verdict is cached.
  [[nodiscard]] AppId classify(const FlowKey& key, const FlowSample& sample);

  [[nodiscard]] VerdictCache& cache() { return cache_; }
  [[nodiscard]] const VerdictCache& cache() const { return cache_; }
  [[nodiscard]] std::uint64_t slow_path_calls() const { return slow_path_calls_; }
  [[nodiscard]] const SlowPathProfile& profile() const { return profile_; }

  /// Checkpoint support: restores mutable state (cache contents + counters).
  void restore(std::uint64_t slow_path_calls) { slow_path_calls_ = slow_path_calls; }

 private:
  VerdictCache cache_;
  std::uint64_t slow_path_calls_ = 0;
  SlowPathProfile profile_;
  FlowMetadata meta_scratch_;  // reused across slow-path calls
};

}  // namespace wlm::classify

#include "classify/verdict_cache.hpp"

#include <algorithm>
#include <bit>
#include <chrono>

namespace wlm::classify {

VerdictCache::VerdictCache(std::size_t capacity, std::uint32_t slow_fragments)
    : capacity_(std::clamp<std::size_t>(capacity, 1, kMaxCapacity)),
      slow_fragments_(std::max<std::uint32_t>(slow_fragments, 1)) {}

std::size_t VerdictCache::probe(const FlowKey& key) const {
  const std::size_t mask = index_.size() - 1;
  std::size_t i = FlowKeyHash{}(key) & mask;
  while (index_[i] != kEmpty && !(ring_[index_[i]].key == key)) i = (i + 1) & mask;
  return i;
}

bool VerdictCache::rebuild_index(std::size_t entries) {
  index_.assign(std::max(kMinSlots, std::bit_ceil(2 * entries)), kEmpty);
  for (std::size_t pos = 0; pos < ring_.size(); ++pos) {
    const std::size_t i = probe(ring_[pos].key);
    if (index_[i] != kEmpty) return false;
    index_[i] = static_cast<std::uint32_t>(pos);
  }
  return true;
}

void VerdictCache::erase_index(std::size_t hole) {
  // Backward-shift deletion: each later entry of the chain whose home slot
  // is not cyclically inside (hole, i] moves into the hole, so every chain
  // stays unbroken without tombstones.
  const std::size_t mask = index_.size() - 1;
  for (std::size_t i = (hole + 1) & mask; index_[i] != kEmpty; i = (i + 1) & mask) {
    const std::size_t home = FlowKeyHash{}(ring_[index_[i]].key) & mask;
    if (((i - home) & mask) >= ((i - hole) & mask)) {
      index_[hole] = index_[i];
      hole = i;
    }
  }
  index_[hole] = kEmpty;
}

std::optional<AppId> VerdictCache::lookup(const FlowKey& key) {
  if (!index_.empty()) {
    const std::uint32_t pos = index_[probe(key)];
    if (pos != kEmpty && ring_[pos].slow_seen >= slow_fragments_) {
      ++stats_.hits;
      return ring_[pos].verdict;
    }
  }
  ++stats_.misses;
  return std::nullopt;
}

void VerdictCache::record(const FlowKey& key, AppId verdict) {
  if (2 * std::min(ring_.size() + 1, capacity_) > index_.size()) {
    (void)rebuild_index(ring_.size() + 1);  // the ring's keys are distinct
  }
  std::size_t i = probe(key);
  if (index_[i] == kEmpty) {
    std::uint32_t pos = 0;
    if (ring_.size() < capacity_) {
      pos = static_cast<std::uint32_t>(ring_.size());
      if (ring_.size() == ring_.capacity()) {
        ring_.reserve(std::min(capacity_, std::max<std::size_t>(kMinSlots, 2 * ring_.size())));
      }
      ring_.push_back(SavedEntry{key});
    } else {
      // Full: the oldest slot takes the new flow, and the ring's start
      // moves on by one.
      pos = static_cast<std::uint32_t>(head_);
      erase_index(probe(ring_[head_].key));
      ++stats_.evictions;
      head_ = head_ + 1 == capacity_ ? 0 : head_ + 1;
      ring_[pos] = SavedEntry{key};
      i = probe(key);  // the erase may have shifted the new key's chain
    }
    index_[i] = pos;
  }
  SavedEntry& entry = ring_[index_[i]];
  entry.verdict = verdict;
  if (entry.slow_seen < slow_fragments_ && ++entry.slow_seen == slow_fragments_) {
    ++stats_.pinned;
  }
}

std::vector<VerdictCache::SavedEntry> VerdictCache::snapshot() const {
  std::vector<SavedEntry> out;
  out.reserve(ring_.size());
  const auto head = ring_.begin() + static_cast<std::ptrdiff_t>(head_);
  out.insert(out.end(), head, ring_.end());
  out.insert(out.end(), ring_.begin(), head);
  return out;
}

bool VerdictCache::restore(const std::vector<SavedEntry>& entries, const Stats& stats) {
  if (entries.size() > capacity_) return false;
  VerdictCache rebuilt(capacity_, slow_fragments_);
  if (!entries.empty()) {
    rebuilt.ring_ = entries;
    if (!rebuilt.rebuild_index(entries.size())) return false;
  }
  rebuilt.stats_ = stats;
  *this = std::move(rebuilt);
  return true;
}

void SlowPathProfile::record(std::uint64_t ns) {
  const std::size_t bucket =
      ns == 0 ? 0 : std::min<std::size_t>(std::bit_width(ns) - 1, kBuckets - 1);
  ++buckets[bucket];
  ++count;
  total_ns += ns;
}

TwoTierClassifier::TwoTierClassifier(std::size_t cache_capacity) : cache_(cache_capacity) {}

AppId TwoTierClassifier::classify(const FlowKey& key, const FlowSample& sample) {
  if (const auto verdict = cache_.lookup(key)) return *verdict;
  const auto start = std::chrono::steady_clock::now();
  extract_metadata_fast_into(sample, meta_scratch_);
  const AppId verdict = RuleIndex::standard().classify(meta_scratch_);
  const auto end = std::chrono::steady_clock::now();
  ++slow_path_calls_;
  profile_.record(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - start).count()));
  cache_.record(key, verdict);
  return verdict;
}

}  // namespace wlm::classify

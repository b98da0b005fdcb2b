#include "classify/verdict_cache.hpp"

#include <algorithm>
#include <bit>
#include <chrono>

namespace wlm::classify {

VerdictCache::VerdictCache(std::size_t capacity, std::uint32_t slow_fragments)
    : capacity_(std::max<std::size_t>(capacity, 1)),
      slow_fragments_(std::max<std::uint32_t>(slow_fragments, 1)) {}

std::optional<AppId> VerdictCache::lookup(const FlowKey& key) {
  const auto it = entries_.find(key);
  if (it != entries_.end() && it->second.slow_seen >= slow_fragments_) {
    ++stats_.hits;
    return it->second.verdict;
  }
  ++stats_.misses;
  return std::nullopt;
}

void VerdictCache::record(const FlowKey& key, AppId verdict) {
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    if (entries_.size() >= capacity_) {
      // Recycle the evicted node for the incoming key instead of a
      // free+malloc pair per eviction — a full cache turns over once per
      // flow, so the churn is material at fleet scale.
      auto node = entries_.extract(fifo_.front());
      fifo_.pop_front();
      ++stats_.evictions;
      node.key() = key;
      node.mapped() = Entry{};
      it = entries_.insert(std::move(node)).position;
    } else {
      it = entries_.emplace(key, Entry{}).first;
    }
    fifo_.push_back(key);
  }
  it->second.verdict = verdict;
  if (it->second.slow_seen < slow_fragments_ && ++it->second.slow_seen == slow_fragments_) {
    ++stats_.pinned;
  }
}

void VerdictCache::clear() {
  entries_.clear();
  fifo_.clear();
  stats_ = Stats{};
}

std::vector<VerdictCache::SavedEntry> VerdictCache::snapshot() const {
  std::vector<SavedEntry> out;
  out.reserve(fifo_.size());
  for (const auto& key : fifo_) {
    const auto& entry = entries_.at(key);
    out.push_back(SavedEntry{key, entry.verdict, entry.slow_seen});
  }
  return out;
}

void VerdictCache::restore(const std::vector<SavedEntry>& entries, const Stats& stats) {
  entries_.clear();
  fifo_.clear();
  for (const auto& e : entries) {
    entries_.emplace(e.key, Entry{e.verdict, e.slow_seen});
    fifo_.push_back(e.key);
  }
  stats_ = stats;
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

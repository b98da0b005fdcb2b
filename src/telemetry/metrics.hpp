// Fleet-wide metrics: counters, gauges, and fixed-bucket histograms.
//
// The paper's pipeline only worked at 10,000-AP scale because the collectors
// themselves were instrumented — per-AP counters and backend health rolled up
// in the cloud (§6.1: "measure and instrument the system at large scale").
// This registry is that layer for the reproduction.
//
// Concurrency model: "lock-free-ish" by confinement, not by atomics. Every
// MetricsRegistry instance belongs to exactly one shard (or to the harvest
// thread), the same ownership discipline as backend::ReportStore, so updates
// are plain integer increments with no synchronization. At harvest the
// fleet runtime merges shard registries in fixed fleet order — additive for
// every metric kind — which keeps the merged snapshot bit-identical for any
// worker-pool size (see sim::FleetRunner's determinism contract).
//
// Determinism rules for anything stored here:
//   1. values derive from simulated state only — never wall-clock time
//      (wall-clock self-profiling lives in telemetry/profile.hpp instead);
//   2. storage is sorted (std::map keyed by name+entity), so iteration and
//      the exporters in telemetry/export.hpp are order-stable;
//   3. merge is commutative addition, so shard merge order only matters for
//      key creation, which the sorted map erases.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace wlm::telemetry {

/// Identifies one metric instance: a metric name plus an optional entity
/// (AP id, network id — the caller composes it; 0 means fleet-wide). The
/// same shape as backend::SeriesKey, for the same reason: per-device
/// attribution is what fleet totals cannot give.
struct MetricKey {
  std::string name;
  std::uint64_t entity = 0;

  bool operator<(const MetricKey& o) const {
    return name < o.name || (name == o.name && entity < o.entity);
  }
  bool operator==(const MetricKey&) const = default;
};

/// Monotonically increasing event count.
class Counter {
 public:
  void inc(std::uint64_t n = 1) { value_ += n; }
  [[nodiscard]] std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Point-in-time value. Shard gauges are additive contributions (ledger
/// buckets, queue depths), so merging sums them into fleet totals.
class Gauge {
 public:
  void set(double v) { value_ = v; }
  void add(double d) { value_ += d; }
  [[nodiscard]] double value() const { return value_; }

 private:
  double value_ = 0.0;
};

/// Fixed-bucket histogram: `bounds` are ascending upper bounds; one
/// overflow bucket catches everything above the last bound. Bounds are set
/// at creation and never change, so shard histograms merge bucket-wise.
class Histogram {
 public:
  Histogram() = default;
  explicit Histogram(std::vector<double> bounds);

  void observe(double x);

  [[nodiscard]] const std::vector<double>& bounds() const { return bounds_; }
  /// bounds().size() + 1 entries; the last is the overflow bucket.
  [[nodiscard]] const std::vector<std::uint64_t>& bucket_counts() const { return counts_; }
  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double sum() const { return sum_; }

  /// Adds `other`'s buckets into this one. Requires identical bounds;
  /// mismatched shapes are ignored (a merge must never corrupt counts).
  void merge(const Histogram& other);

  /// Exact overwrite for checkpoint restore. Returns false (and changes
  /// nothing) unless `counts` matches this histogram's bucket shape —
  /// restore must never leave a half-valid histogram behind.
  bool restore(const std::vector<std::uint64_t>& counts, std::uint64_t count, double sum) {
    if (counts.size() != bounds_.size() + 1) return false;
    counts_ = counts;
    count_ = count;
    sum_ = sum;
    return true;
  }

 private:
  std::vector<double> bounds_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
};

class MetricsRegistry {
 public:
  /// Finds or creates. References stay valid for the registry's lifetime
  /// (node-based map), so hot paths can cache the handle.
  Counter& counter(std::string_view name, std::uint64_t entity = 0);
  Gauge& gauge(std::string_view name, std::uint64_t entity = 0);
  /// `bounds` applies only on first creation of the key.
  Histogram& histogram(std::string_view name, std::vector<double> bounds,
                       std::uint64_t entity = 0);

  /// Value lookups for tests and reconciliation; 0 when absent.
  [[nodiscard]] std::uint64_t counter_value(std::string_view name,
                                            std::uint64_t entity = 0) const;
  [[nodiscard]] double gauge_value(std::string_view name, std::uint64_t entity = 0) const;
  [[nodiscard]] const Histogram* find_histogram(std::string_view name,
                                                std::uint64_t entity = 0) const;

  /// Adds every metric of `other` into this registry: counters and gauges
  /// sum, histograms merge bucket-wise, missing keys are created. Callers
  /// needing bit-stable fleet snapshots merge shards in fixed fleet order
  /// (sorted storage makes even that requirement soft — see file comment).
  void merge(const MetricsRegistry& other);

  /// Sorted-key visitation (the exporters' iteration order).
  void for_each_counter(
      const std::function<void(const MetricKey&, const Counter&)>& fn) const;
  void for_each_gauge(const std::function<void(const MetricKey&, const Gauge&)>& fn) const;
  void for_each_histogram(
      const std::function<void(const MetricKey&, const Histogram&)>& fn) const;

  [[nodiscard]] std::size_t size() const {
    return counters_.size() + gauges_.size() + histograms_.size();
  }
  void clear();

 private:
  std::map<MetricKey, Counter> counters_;
  std::map<MetricKey, Gauge> gauges_;
  std::map<MetricKey, Histogram> histograms_;
};

}  // namespace wlm::telemetry

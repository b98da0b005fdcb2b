// Long-term time-series storage.
//
// The paper's backend keeps "a database of time-series measurements of
// wireless link, client, and application behavior" (abstract) spanning
// years. This store models that layer: named metric series per entity,
// append-mostly writes, range queries, and bucketed downsampling for charts.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/stats.hpp"
#include "core/time.hpp"

namespace wlm::backend {

/// Identifies one series: metric name plus an entity key (AP id, client
/// MAC, channel number — the caller composes it).
struct SeriesKey {
  std::string metric;
  std::uint64_t entity = 0;

  bool operator<(const SeriesKey& o) const {
    return metric < o.metric || (metric == o.metric && entity < o.entity);
  }
  bool operator==(const SeriesKey&) const = default;
};

struct Point {
  SimTime time;
  double value = 0.0;
};

/// Aggregation used when downsampling.
enum class Agg : std::uint8_t { kMean, kMax, kMin, kSum, kCount };

struct Bucket {
  SimTime start;
  Duration width;
  double value = 0.0;
  std::size_t samples = 0;
};

class TimeSeriesStore {
 public:
  /// Appends a sample. Out-of-order appends (late tunnel catch-up after a
  /// WAN outage) are accepted and kept sorted.
  void append(const SeriesKey& key, SimTime t, double value);

  [[nodiscard]] std::size_t series_count() const { return series_.size(); }
  [[nodiscard]] std::size_t total_points() const;

  /// Raw points in [from, to), time-sorted.
  [[nodiscard]] std::vector<Point> query(const SeriesKey& key, SimTime from,
                                         SimTime to) const;

  /// Fixed-width bucket aggregation over [from, to). Empty buckets are
  /// omitted.
  [[nodiscard]] std::vector<Bucket> downsample(const SeriesKey& key, SimTime from,
                                               SimTime to, Duration width, Agg agg) const;

 private:
  struct Series {
    std::vector<Point> raw;  // time-sorted once ensure_sorted() ran
    bool raw_sorted = true;
  };
  void ensure_sorted(Series& s) const;

  mutable std::map<SeriesKey, Series> series_;
};

}  // namespace wlm::backend

#include "backend/timeseries.hpp"

#include <algorithm>

namespace wlm::backend {

void TimeSeriesStore::append(const SeriesKey& key, SimTime t, double value) {
  auto& s = series_[key];
  if (!s.raw.empty() && t < s.raw.back().time) s.raw_sorted = false;
  s.raw.push_back(Point{t, value});
}

void TimeSeriesStore::ensure_sorted(Series& s) const {
  if (s.raw_sorted) return;
  std::stable_sort(s.raw.begin(), s.raw.end(),
                   [](const Point& a, const Point& b) { return a.time < b.time; });
  s.raw_sorted = true;
}

std::size_t TimeSeriesStore::total_points() const {
  std::size_t total = 0;
  for (const auto& [key, s] : series_) total += s.raw.size();
  return total;
}

std::vector<Point> TimeSeriesStore::query(const SeriesKey& key, SimTime from,
                                          SimTime to) const {
  std::vector<Point> out;
  const auto it = series_.find(key);
  if (it == series_.end()) return out;
  ensure_sorted(it->second);
  for (const auto& p : it->second.raw) {
    if (p.time >= from && p.time < to) out.push_back(p);
  }
  return out;
}

std::vector<Bucket> TimeSeriesStore::downsample(const SeriesKey& key, SimTime from,
                                                SimTime to, Duration width, Agg agg) const {
  std::vector<Bucket> out;
  if (width <= Duration{}) return out;
  const auto points = query(key, from, to);
  if (points.empty()) return out;

  auto flush = [&](SimTime start, const RunningStats& stats) {
    if (stats.count() == 0) return;
    Bucket b;
    b.start = start;
    b.width = width;
    b.samples = stats.count();
    switch (agg) {
      case Agg::kMean:
        b.value = stats.mean();
        break;
      case Agg::kMax:
        b.value = stats.max();
        break;
      case Agg::kMin:
        b.value = stats.min();
        break;
      case Agg::kSum:
        b.value = stats.sum();
        break;
      case Agg::kCount:
        b.value = static_cast<double>(stats.count());
        break;
    }
    out.push_back(b);
  };

  std::int64_t bucket_index = -1;
  RunningStats stats;
  SimTime bucket_start;
  for (const auto& p : points) {
    const std::int64_t idx = (p.time - from) / width;
    if (idx != bucket_index) {
      flush(bucket_start, stats);
      stats = RunningStats{};
      bucket_index = idx;
      bucket_start = from + width * idx;
    }
    stats.add(p.value);
  }
  flush(bucket_start, stats);
  return out;
}

}  // namespace wlm::backend

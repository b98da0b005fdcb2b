// Backend-side aggregation.
//
// "Local statistics are aggregated by MAC address in the backend (to account
// for roaming)" — paper §2.3. A client that roamed across three APs during
// the week must count once, with its bytes summed; its OS is resolved by
// majority over the per-AP observations.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "backend/store.hpp"
#include "classify/apps.hpp"
#include "classify/os.hpp"
#include "core/ids.hpp"

namespace wlm::backend {

/// Flat app -> (up, down) byte map. A client touches a handful of the
/// catalog's ~30 apps, so a linear scan over one contiguous vector beats a
/// per-client hash map's bucket array and node allocations — the aggregator
/// holds one of these per client, millions at fleet scale. Insertion order
/// is deterministic (input order), and every reader (byte totals, per-app
/// and per-category rollups) is order-free.
class AppByteMap {
 public:
  using value_type = std::pair<classify::AppId, std::pair<std::uint64_t, std::uint64_t>>;

  std::pair<std::uint64_t, std::uint64_t>& operator[](classify::AppId app) {
    for (auto& e : entries_) {
      if (e.first == app) return e.second;
    }
    entries_.emplace_back(app, std::pair<std::uint64_t, std::uint64_t>{0, 0});
    return entries_.back().second;
  }
  [[nodiscard]] const std::pair<std::uint64_t, std::uint64_t>& at(classify::AppId app) const;
  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] bool empty() const { return entries_.empty(); }
  [[nodiscard]] auto begin() const { return entries_.begin(); }
  [[nodiscard]] auto end() const { return entries_.end(); }

 private:
  std::vector<value_type> entries_;
};

/// Raw per-client observations backing OS resolution: which APs the MAC was
/// sighted on and how many snapshots voted for each OS id. Small flat
/// vectors — a fleet-sized harvest does millions of sighting/vote updates,
/// and a linear scan over a handful of APs or OS ids beats a nested hash
/// map's hashing and node churn.
struct ClientObservations {
  std::vector<ApId> seen;                           // unique APs, insertion order
  std::vector<std::pair<std::uint8_t, int>> votes;  // unique OS ids, insertion order
};

/// Week-level rollup for one client MAC.
struct ClientAggregate {
  MacAddress mac;
  classify::OsType os = classify::OsType::kUnknown;
  std::uint32_t capability_bits = 0;
  AppByteMap app_bytes;  // app -> (up, down)
  ClientObservations obs;  // feeds resolve()
  int ap_count = 0;  // distinct APs the client appeared on (roaming)

  [[nodiscard]] std::uint64_t upstream() const;
  [[nodiscard]] std::uint64_t downstream() const;
  [[nodiscard]] std::uint64_t total() const { return upstream() + downstream(); }
};

/// Aggregates all usage and client snapshots in the store by MAC.
class UsageAggregator {
 public:
  /// Consumes every report in [from, to). Reads through the ReportSource
  /// contract, so the row store and the columnar tsdb segment store feed it
  /// interchangeably (canonical order either way).
  void consume(const ReportSource& store, SimTime from, SimTime to);

  [[nodiscard]] const std::unordered_map<MacAddress, ClientAggregate>& clients() const {
    return clients_;
  }
  [[nodiscard]] std::size_t client_count() const { return clients_.size(); }

  /// Per-OS rollup: (total up, total down, client count) per OS.
  struct OsRollup {
    std::uint64_t up = 0;
    std::uint64_t down = 0;
    std::uint64_t clients = 0;
  };
  [[nodiscard]] std::vector<OsRollup> by_os() const;

  /// Per-app rollup: (up, down, clients).
  struct AppRollup {
    std::uint64_t up = 0;
    std::uint64_t down = 0;
    std::uint64_t clients = 0;
  };
  [[nodiscard]] std::unordered_map<classify::AppId, AppRollup> by_app() const;
  [[nodiscard]] std::vector<AppRollup> by_category() const;

 private:
  /// Recomputes every client's majority OS and roaming spread from the
  /// accumulated votes.
  void resolve();

  // Observations live inside each ClientAggregate (one hash lookup per
  // usage-row run instead of two parallel maps' worth, and ~half the map
  // nodes at fleet scale).
  std::unordered_map<MacAddress, ClientAggregate> clients_;
};

}  // namespace wlm::backend

#include "backend/aggregate.hpp"

#include <stdexcept>

namespace wlm::backend {

const std::pair<std::uint64_t, std::uint64_t>& AppByteMap::at(classify::AppId app) const {
  for (const auto& e : entries_) {
    if (e.first == app) return e.second;
  }
  throw std::out_of_range("AppByteMap::at: unknown app");
}

std::uint64_t ClientAggregate::upstream() const {
  std::uint64_t total = 0;
  for (const auto& [app, bytes] : app_bytes) total += bytes.first;
  return total;
}

std::uint64_t ClientAggregate::downstream() const {
  std::uint64_t total = 0;
  for (const auto& [app, bytes] : app_bytes) total += bytes.second;
  return total;
}

namespace {

/// Records `ap` as sighted unless it already is.
void mark_seen(std::vector<ApId>& seen, ApId ap) {
  for (const ApId existing : seen) {
    if (existing == ap) return;
  }
  seen.push_back(ap);
}

void add_vote(std::vector<std::pair<std::uint8_t, int>>& votes, std::uint8_t os_id) {
  for (auto& [existing, n] : votes) {
    if (existing == os_id) {
      n += 1;
      return;
    }
  }
  votes.emplace_back(os_id, 1);
}

}  // namespace

void UsageAggregator::consume(const ReportSource& store, SimTime from, SimTime to) {
  store.for_each_in(from, to, [&](const wire::ApReport& report) {
    const ApId ap{report.ap_id};
    // Usage rows for one client arrive consecutively (the AP serializes its
    // flow table client by client), so one client/observation lookup pair is
    // reused across that client's whole run of rows instead of re-hashing
    // the MAC for every row. The sighting is recorded once per run, too —
    // every row in the run repeats the same (client, ap) pair.
    ClientAggregate* agg = nullptr;
    bool have_cached = false;
    MacAddress cached_mac;
    for (const auto& u : report.usage) {
      if (!have_cached || !(u.client == cached_mac)) {
        cached_mac = u.client;
        have_cached = true;
        agg = &clients_[u.client];
        agg->mac = u.client;
        mark_seen(agg->obs.seen, ap);
      }
      auto& bytes = agg->app_bytes[static_cast<classify::AppId>(u.app_id)];
      bytes.first += u.tx_bytes;
      bytes.second += u.rx_bytes;
    }
    for (const auto& snap : report.clients) {
      auto& agg2 = clients_[snap.client];
      agg2.mac = snap.client;
      agg2.capability_bits |= snap.capability_bits;
      add_vote(agg2.obs.votes, snap.os_id);
      mark_seen(agg2.obs.seen, ap);
    }
  });
  resolve();
}

void UsageAggregator::resolve() {
  // Per-client OS by majority vote and roaming spread. Vote scan goes over
  // os ids in ascending order (not observation order) so an exact tie
  // resolves identically on every platform and input order.
  for (auto& [mac, agg] : clients_) {
    int best = 0;
    for (int os_id = 0; os_id < classify::kOsTypeCount; ++os_id) {
      for (const auto& [id, count] : agg.obs.votes) {
        if (id == os_id && count > best) {
          best = count;
          agg.os = static_cast<classify::OsType>(os_id);
        }
      }
    }
    agg.ap_count = static_cast<int>(agg.obs.seen.size());
  }
}

std::vector<UsageAggregator::OsRollup> UsageAggregator::by_os() const {
  std::vector<OsRollup> out(static_cast<std::size_t>(classify::kOsTypeCount));
  for (const auto& [mac, agg] : clients_) {
    auto& roll = out[static_cast<std::size_t>(agg.os)];
    roll.up += agg.upstream();
    roll.down += agg.downstream();
    ++roll.clients;
  }
  return out;
}

std::unordered_map<classify::AppId, UsageAggregator::AppRollup> UsageAggregator::by_app() const {
  std::unordered_map<classify::AppId, AppRollup> out;
  for (const auto& [mac, agg] : clients_) {
    for (const auto& [app, bytes] : agg.app_bytes) {
      auto& roll = out[app];
      roll.up += bytes.first;
      roll.down += bytes.second;
      ++roll.clients;
    }
  }
  return out;
}

std::vector<UsageAggregator::AppRollup> UsageAggregator::by_category() const {
  std::vector<AppRollup> out(static_cast<std::size_t>(classify::kCategoryCount));
  // Track distinct clients per category, not the sum of app client counts.
  std::vector<std::unordered_map<std::uint64_t, bool>> seen(
      static_cast<std::size_t>(classify::kCategoryCount));
  for (const auto& [mac, agg] : clients_) {
    for (const auto& [app, bytes] : agg.app_bytes) {
      const auto cat = static_cast<std::size_t>(classify::app_info(app).category);
      out[cat].up += bytes.first;
      out[cat].down += bytes.second;
      seen[cat][mac.to_u64()] = true;
    }
  }
  for (std::size_t c = 0; c < out.size(); ++c) {
    out[c].clients = seen[c].size();
  }
  return out;
}

}  // namespace wlm::backend

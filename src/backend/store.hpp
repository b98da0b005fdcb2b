// Backend report store: the long-term home of decoded telemetry.
//
// Holds every ApReport the poller harvested, indexed by access point, with
// time-range queries. Analyses read from here and only here — the same
// boundary the paper's pipeline had between collection and analysis.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "backend/report_source.hpp"
#include "core/ids.hpp"
#include "core/time.hpp"
#include "wire/messages.hpp"

namespace wlm::backend {

class ReportStore final : public ReportSource {
 public:
  void add(wire::ApReport report);

  [[nodiscard]] std::size_t report_count() const override { return total_; }
  [[nodiscard]] std::size_t ap_count() const override { return by_ap_.size(); }

  /// All reports for one AP, in arrival order.
  [[nodiscard]] const std::vector<wire::ApReport>& reports_for(ApId ap) const;

  /// Visits every report in canonical order (ascending AP id, per-AP
  /// arrival order), optionally bounded to [from, to). Canonical order is
  /// part of the read contract (backend/report_source.hpp): it keeps this
  /// store and the columnar segment store byte-interchangeable.
  void for_each(const std::function<void(const wire::ApReport&)>& fn) const override;
  void for_each_in(SimTime from, SimTime to,
                   const std::function<void(const wire::ApReport&)>& fn) const override;

  [[nodiscard]] std::vector<ApId> aps() const;

 private:
  std::unordered_map<ApId, std::vector<wire::ApReport>> by_ap_;
  std::size_t total_ = 0;
};

}  // namespace wlm::backend

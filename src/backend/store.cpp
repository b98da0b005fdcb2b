#include "backend/store.hpp"

#include <algorithm>
#include <iterator>

namespace wlm::backend {

void ReportStore::add(wire::ApReport report) {
  by_ap_[ApId{report.ap_id}].push_back(std::move(report));
  ++total_;
}

const std::vector<wire::ApReport>& ReportStore::reports_for(ApId ap) const {
  static const std::vector<wire::ApReport> kEmpty;
  const auto it = by_ap_.find(ap);
  return it == by_ap_.end() ? kEmpty : it->second;
}

void ReportStore::for_each(const std::function<void(const wire::ApReport&)>& fn) const {
  for (const ApId ap : aps()) {
    for (const auto& r : by_ap_.at(ap)) fn(r);
  }
}

void ReportStore::for_each_in(SimTime from, SimTime to,
                              const std::function<void(const wire::ApReport&)>& fn) const {
  for (const ApId ap : aps()) {
    for (const auto& r : by_ap_.at(ap)) {
      if (r.timestamp_us >= from.as_micros() && r.timestamp_us < to.as_micros()) fn(r);
    }
  }
}

std::vector<ApId> ReportStore::aps() const {
  std::vector<ApId> out;
  out.reserve(by_ap_.size());
  for (const auto& [ap, reports] : by_ap_) out.push_back(ap);
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace wlm::backend

// Read-side abstraction over harvested telemetry.
//
// Analyses, the usage aggregator, and the health monitor consume reports
// through this interface so the storage behind it can be either the
// in-memory row store (backend::ReportStore) or the columnar segment store
// (tsdb::FleetStore) without the readers knowing. Every implementation
// visits reports in the canonical order — ascending AP id, per-AP arrival
// order — which is what makes renders bit-identical across storage
// backends and --jobs values.
//
// Callbacks run on the thread that called the visit, one at a time, never
// concurrently — even when the source decodes on helper threads behind the
// scenes (tsdb::FleetStore reads ahead on the runner's workers). A visitor
// may therefore update its own state without locking.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "core/ids.hpp"
#include "core/time.hpp"
#include "wire/messages.hpp"

namespace wlm::backend {

class ReportSource {
 public:
  virtual ~ReportSource() = default;

  [[nodiscard]] virtual std::size_t report_count() const = 0;
  [[nodiscard]] virtual std::size_t ap_count() const = 0;

  /// Visits every report in canonical order (ascending AP id, per-AP
  /// arrival order), optionally bounded to [from, to).
  virtual void for_each(const std::function<void(const wire::ApReport&)>& fn) const = 0;
  virtual void for_each_in(SimTime from, SimTime to,
                           const std::function<void(const wire::ApReport&)>& fn) const = 0;

  /// Visits each AP's report batch, ascending by AP id. The vector is only
  /// valid for the duration of the call — columnar sources materialize one
  /// network at a time and recycle the buffer.
  virtual void for_each_ap(
      const std::function<void(ApId, const std::vector<wire::ApReport>&)>& fn) const = 0;
};

}  // namespace wlm::backend

// Read-side abstraction over harvested telemetry.
//
// Analyses, the usage aggregator, and the health monitor consume reports
// through this interface. Harvested reports live in the columnar segment
// vault (tsdb::FleetStore); a shard's drained-but-unsealed batch, and test
// copies of a harvested fleet, live in the row store (backend::ReportStore).
// Readers cannot tell the two apart. Every implementation visits reports
// in the canonical order — ascending AP id, per-AP arrival order — which
// is what makes renders bit-identical across stores and --jobs values. It
// also means one AP's reports are contiguous in the stream, so a reader
// that needs a per-AP view folds the stream and closes an AP when the next
// one's first report arrives (backend::HealthMonitor does).
//
// Callbacks run on the thread that called the visit, one at a time, never
// concurrently — even when the source decodes on helper threads behind the
// scenes (tsdb::FleetStore reads ahead on the runner's workers). A visitor
// may therefore update its own state without locking.
#pragma once

#include <cstddef>
#include <functional>

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
};

}  // namespace wlm::backend

// Test helper: a harvested fleet's reports copied into a row store, for
// checks that need ReportStore's per-AP index or its checkpoint encoding.
#pragma once

#include "backend/report_source.hpp"
#include "backend/store.hpp"

namespace wlm::test_support {

[[nodiscard]] inline backend::ReportStore to_store(const backend::ReportSource& reports) {
  backend::ReportStore store;
  reports.for_each([&](const wire::ApReport& report) { store.add(report); });
  return store;
}

}  // namespace wlm::test_support

#include "core/units.hpp"

#include <cstdio>

namespace wlm {

namespace {

std::string format_value(double v, const char* unit) {
  char buf[64];
  if (v >= 100.0) {
    std::snprintf(buf, sizeof buf, "%.0f %s", v, unit);
  } else if (v >= 10.0) {
    std::snprintf(buf, sizeof buf, "%.1f %s", v, unit);
  } else {
    std::snprintf(buf, sizeof buf, "%.2f %s", v, unit);
  }
  return buf;
}

}  // namespace

std::string Bytes::human() const {
  const double n = static_cast<double>(n_);
  if (n >= 1e12) return format_value(n / 1e12, "TB");
  if (n >= 1e9) return format_value(n / 1e9, "GB");
  if (n >= 1e6) return format_value(n / 1e6, "MB");
  if (n >= 1e3) return format_value(n / 1e3, "kB");
  return format_value(n, "B");
}

std::string percent_increase(double before, double after) {
  char buf[64];
  if (before <= 0.0) {
    return "n/a";
  }
  const double pct = (after - before) / before * 100.0;
  if (pct >= 100.0 || pct <= -100.0) {
    std::snprintf(buf, sizeof buf, "%.0f%%", pct);
  } else if (pct >= 10.0 || pct <= -10.0) {
    std::snprintf(buf, sizeof buf, "%.0f%%", pct);
  } else {
    std::snprintf(buf, sizeof buf, "%.1f%%", pct);
  }
  return buf;
}

}  // namespace wlm

#include "tsdb/format.hpp"

namespace wlm::tsdb {

const char* status_name(Status s) {
  switch (s) {
    case Status::kOk:
      return "ok";
    case Status::kIo:
      return "io";
    case Status::kBadMagic:
      return "bad-magic";
    case Status::kBadVersion:
      return "bad-version";
    case Status::kTruncated:
      return "truncated";
    case Status::kBadCrc:
      return "bad-crc";
    case Status::kMalformed:
      return "malformed";
    case Status::kBadCount:
      return "bad-count";
    case Status::kNotCanonical:
      return "not-canonical";
  }
  return "unknown";
}

}  // namespace wlm::tsdb

// Checkpoint container format: the on-disk envelope campaign snapshots
// travel in.
//
// A checkpoint is a sequence of tagged, length-prefixed, CRC-guarded
// sections behind a magic/version header:
//
//   [8B magic "WLMCKPT\x01"] [u32 LE version] [u32 LE section count]
//   section*: [tag varint] [payload len varint] [crc32 4B LE] [payload]
//
// Built on the same primitives as the telemetry wire format (wire/varint,
// core/checksum), for the same reason the paper's backend reused its
// protocol stack: one codec, one set of bugs. Every multi-byte scalar is
// little-endian and every double is its IEEE-754 bit pattern, so a
// checkpoint written at --jobs 8 is byte-identical to one written at
// --jobs 1 and restores bit-identically on any host.
//
// The reader is adversarial by construction: truncated files, flipped
// bits, bumped versions, and garbage all surface as a typed Status —
// never a crash, hang, or partial parse. Counts read from the file are
// validated against the bytes actually remaining before any loop trusts
// them (tests/ckpt/ckpt_fuzz_test.cpp holds this line).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace wlm::ckpt {

enum class Status : std::uint8_t {
  kOk = 0,
  kIo,          // file unreadable/unwritable
  kBadMagic,    // not a checkpoint file
  kBadVersion,  // a future (or corrupted) format revision
  kTruncated,   // ran out of bytes mid-structure
  kBadCrc,      // a section's payload failed its CRC
  kMalformed,   // syntactically broken payload content
  kBadConfig,   // well-formed, but inconsistent with the rebuilt world
};

[[nodiscard]] const char* status_name(Status s);

/// Typed failure: status plus a one-line human diagnostic.
struct Error {
  Status status = Status::kOk;
  std::string detail;

  [[nodiscard]] bool ok() const { return status == Status::kOk; }
  [[nodiscard]] explicit operator bool() const { return !ok(); }
};

/// Section tags. Append, never renumber (same contract as the wire format).
enum class SectionTag : std::uint64_t {
  kMeta = 1,            // campaign progress + ledger snapshot (cross-check)
  kConfig = 2,          // WorldConfig: everything reconstruction needs
  kFleetStore = 3,      // merged backend store (post-harvest state)
  kFleetTelemetry = 4,  // merged metrics + trace + sim-hours
  kShard = 5,           // repeated, one per network, fleet order
  kSupervision = 6,     // degraded-run manifest (supervision incidents)
  kTsdbSegments = 7,    // repeated, one sealed tsdb segment per section
};

// Version 2: shard sections carry the two-tier classifier (verdict cache
// contents + slow-path counter) and the config section carries the
// classifier mode and cache capacity. Version 3: the ledger carries the
// lost_supervision bucket, the config section carries the supervision
// knobs, and a kSupervision section serializes the degraded-run manifest.
// Version 4: the fleet store serializes as sealed columnar tsdb segments
// (each with its own internal CRCs) instead of row-encoded reports, the
// config section carries the streaming-harvest bit (the on/off state is
// simulated behavior; the ceiling value and spill directory are host
// resource knobs and stay out, like the thread count). Version 5: the
// config section carries the mobility knobs and shard sections append a
// mobility block (mobility RNG, per-client motion state, serving BSS, and
// pending-handoff debounce) when mobility is enabled, so a restored run
// resumes every walk mid-stride. Version 6: the ledger carries the
// lost_mesh_partition bucket, the config section carries the mesh backhaul
// knobs, and shard sections append a mesh block (mesh RNG, the phase's
// routing table, per-AP relay busy horizons, and the partition-drop count)
// when mesh is enabled, so a restored run relays over the same drifted
// topology. Version 7: the config section drops the legacy WAN-flap
// shorthand (FaultSpec carries the flap fraction), the classifier mode, the
// verdict-cache capacity and the retry backoff, and shard sections drop the
// classifier mode word: production runs one classifier with a fixed cache
// bound and a fixed backoff. Older versions fail kBadVersion.
inline constexpr std::uint32_t kFormatVersion = 7;

/// Append-only payload builder. Scalars are varints (zigzag for signed),
/// doubles are 8-byte LE bit patterns (exact round-trip, no printf loss),
/// byte strings are length-prefixed.
class Buf {
 public:
  void u64(std::uint64_t v);
  void i64(std::int64_t v);
  void f64(double v);
  void boolean(bool v) { u64(v ? 1 : 0); }
  void bytes(std::span<const std::uint8_t> b);
  void str(std::string_view s);

  [[nodiscard]] const std::vector<std::uint8_t>& data() const { return out_; }
  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(out_); }

 private:
  std::vector<std::uint8_t> out_;
};

/// Fail-latching payload reader: the first malformed read poisons the
/// cursor and every subsequent read returns a zero value, so load code can
/// decode a whole structure linearly and check ok() once. Nothing is ever
/// allocated from an untrusted count — callers bound loops with
/// remaining() (each element consumes at least one byte).
class Cursor {
 public:
  explicit Cursor(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint64_t u64();
  std::int64_t i64();
  double f64();
  bool boolean();
  /// Length-prefixed byte string; empty span (and latched failure) when the
  /// prefix overruns the remaining bytes.
  std::span<const std::uint8_t> bytes();
  std::string str();

  [[nodiscard]] bool ok() const { return ok_; }
  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  /// True when the payload was consumed exactly, with no failure.
  [[nodiscard]] bool at_end() const { return ok_ && pos_ == data_.size(); }
  /// Latches failure from caller-side validation (bad enum value, count
  /// mismatch) so it reports like any other malformed read.
  void fail() { ok_ = false; }

 private:
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

/// Assembles a checkpoint container from finished section payloads.
class Writer {
 public:
  void add_section(SectionTag tag, std::vector<std::uint8_t> payload);
  /// Serializes header + all sections. When `payload_offsets` is given, it
  /// receives each section's payload byte offset in the result, in section
  /// order (spill files seek straight to a segment with it).
  [[nodiscard]] std::vector<std::uint8_t> finish(
      std::vector<std::uint64_t>* payload_offsets = nullptr) const;

 private:
  struct Section {
    SectionTag tag;
    std::vector<std::uint8_t> payload;
  };
  std::vector<Section> sections_;
};

/// Validates and indexes a checkpoint container. load() checks everything
/// up front — magic, version, section framing, every CRC — so section
/// payloads handed out afterwards are at least structurally intact.
class Reader {
 public:
  struct Section {
    SectionTag tag;
    std::span<const std::uint8_t> payload;
  };

  /// Takes ownership of the container bytes (payload spans point into it).
  [[nodiscard]] Error load(std::vector<std::uint8_t> bytes);

  [[nodiscard]] const std::vector<Section>& sections() const { return sections_; }
  /// First section with `tag`, nullopt when absent.
  [[nodiscard]] std::optional<std::span<const std::uint8_t>> find(SectionTag tag) const;
  /// Every section with `tag`, in file order.
  [[nodiscard]] std::vector<std::span<const std::uint8_t>> find_all(SectionTag tag) const;

 private:
  std::vector<std::uint8_t> bytes_;
  std::vector<Section> sections_;
};

/// Writes `bytes` to `path` atomically: a temp file beside it is written,
/// flushed, closed and renamed over `path`, so a crash mid-write never
/// leaves a half-written file where a reader would find it. Every failure is
/// kIo and removes the temp file.
[[nodiscard]] Error write_file_atomic(const std::string& path,
                                      std::span<const std::uint8_t> bytes);

/// Reads the whole file at `path` into `out`; kIo when it cannot.
[[nodiscard]] Error read_file(const std::string& path, std::vector<std::uint8_t>& out);

}  // namespace wlm::ckpt

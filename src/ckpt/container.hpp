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

#include <concepts>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
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
  kFleetStore = 3,      // segment vault summary: report total, segment count
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
// bound and a fixed backoff. Version 8: the segment vault travels as a spill
// file holds it, one kTsdbSegments section per live segment in vault order,
// each payload the sealed bytes alone, behind a kFleetStore summary of the
// report total and the segment count; the per-segment record that repeated
// each segment header's network id, batch number and report count is gone.
// Older versions fail kBadVersion.
inline constexpr std::uint32_t kFormatVersion = 8;

/// Append-only payload builder. Scalars are varints (zigzag for signed),
/// doubles are 8-byte LE bit patterns (exact round-trip, no printf loss),
/// byte strings are length-prefixed.
///
/// The ranged overloads mirror Cursor's, so one field list (ckpt/state.cpp)
/// drives both archives; the bounds are the reader's business.
class Buf {
 public:
  void u64(std::uint64_t v);
  void i64(std::int64_t v);
  void f64(double v);
  void boolean(bool v) { u64(v ? 1 : 0); }
  void bytes(std::span<const std::uint8_t> b);
  void str(std::string_view s);

  template <class T>
  void u64(const T& v, std::uint64_t /*lo*/, std::uint64_t /*hi*/) {
    u64(static_cast<std::uint64_t>(v));
  }
  template <class T>
  void i64(const T& v, std::int64_t /*lo*/, std::int64_t /*hi*/) {
    i64(static_cast<std::int64_t>(v));
  }
  void f64(double v, double /*lo*/, double /*hi*/) { f64(v); }
  /// A Buf never stops; Cursor::live() is the reading side's answer.
  [[nodiscard]] bool live() const { return true; }

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
///
/// A load can also stop without latching: refuse() marks intact bytes that
/// disagree with the rebuilt world (kBadConfig rather than kMalformed).
/// Either way the first verdict stands: a stopped cursor reads zeros,
/// ignores later fail() and refuse() calls, and live() is false.
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

  // Reference-taking reads for field lists. A stopped cursor leaves `x`
  // untouched. Integer reads latch when the value does not fit T (enums:
  // their underlying type) or lies outside [lo, hi]; the ranged f64 latches
  // outside [lo, hi], which includes NaN.
  template <class T>
  void u64(T& x, std::uint64_t lo = 0, std::uint64_t hi = UINT64_MAX) {
    checked_assign(x, u64(), lo, hi);
  }
  template <class T>
  void i64(T& x, std::int64_t lo = INT64_MIN, std::int64_t hi = INT64_MAX) {
    checked_assign(x, i64(), lo, hi);
  }
  void f64(double& x) {
    const double v = f64();
    if (live()) x = v;
  }
  void f64(double& x, double lo, double hi);
  void boolean(bool& x) {
    const bool v = boolean();
    if (live()) x = v;
  }
  void bytes(std::vector<std::uint8_t>& x) {
    const auto v = bytes();
    if (live()) x.assign(v.begin(), v.end());
  }
  void str(std::string& x) {
    std::string v = str();
    if (live()) x = std::move(v);
  }

  [[nodiscard]] bool ok() const { return ok_; }
  /// Neither latched nor refused: reads still decode.
  [[nodiscard]] bool live() const { return ok_ && !refused_; }
  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  /// True when the payload was consumed exactly, with no failure.
  [[nodiscard]] bool at_end() const { return ok_ && pos_ == data_.size(); }
  /// Latches failure from caller-side validation (bad enum value, count
  /// mismatch) so it reports like any other malformed read.
  void fail() {
    if (!refused_) ok_ = false;
  }
  /// Stops the load without latching (see the class comment).
  void refuse() {
    if (ok_) refused_ = true;
  }
  /// Bounds an element count read from the payload: every element consumes
  /// at least `min_bytes_each`, so a count the remaining bytes cannot hold
  /// is corruption. Latches and returns false instead of looping on it.
  bool plausible_count(std::uint64_t count, std::size_t min_bytes_each);

 private:
  template <class T, class V>
  void checked_assign(T& x, V v, V lo, V hi) {
    using Repr = typename std::conditional_t<std::is_enum_v<T>, std::underlying_type<T>,
                                             std::type_identity<T>>::type;
    if (!live()) return;
    if (v < lo || v > hi || !std::in_range<Repr>(v)) {
      ok_ = false;
      return;
    }
    x = static_cast<T>(v);
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
  bool refused_ = false;
};

// --- field lists ---
//
// A checkpointed type lists its fields once, in a
// `template <class Io, class S> void fields(Io&, S&)` overload in this
// namespace (ckpt/state.cpp holds them). The save side runs it with
// Io = Buf, S = const T; the load side with Io = Cursor, S = T. The helpers
// below are written against both archives.

template <class Io>
inline constexpr bool kLoading = std::is_same_v<Io, Cursor>;

/// S is T, const (saving) or not (loading).
template <class S, class T>
concept Is = std::same_as<std::remove_const_t<S>, T>;

/// One field by its type: bools, unsigned and signed integers, doubles,
/// strings and byte strings are scalars; any other type has a field list.
/// Enums and bounded values use the ranged archive calls instead.
template <class Io, class F>
void field(Io& io, F& f) {
  using T = std::remove_const_t<F>;
  if constexpr (std::is_same_v<T, bool>) {
    io.boolean(f);
  } else if constexpr (std::is_integral_v<T> && std::is_unsigned_v<T>) {
    io.u64(f);
  } else if constexpr (std::is_integral_v<T>) {
    io.i64(f);
  } else if constexpr (std::is_same_v<T, double>) {
    io.f64(f);
  } else if constexpr (std::is_same_v<T, std::string>) {
    io.str(f);
  } else if constexpr (std::is_same_v<T, std::vector<std::uint8_t>>) {
    io.bytes(f);
  } else {
    fields(io, f);
  }
}

/// Several fields, in wire order.
template <class Io, class... F>
void list(Io& io, F&... f) {
  (field(io, f), ...);
}

struct Field {
  template <class Io, class F>
  void operator()(Io& io, F& f) const {
    field(io, f);
  }
};

/// Count-prefixed sequence, each element through `elem`. Loading, the count
/// is bounded by plausible_count before any element is decoded.
template <class Io, class V, class Elem = Field>
void seq(Io& io, V& v, std::size_t min_bytes_each, Elem elem = {}) {
  std::uint64_t n = v.size();
  io.u64(n);
  if constexpr (kLoading<Io>) {
    v.clear();
    if (!io.plausible_count(n, min_bytes_each)) return;
    for (std::uint64_t i = 0; i < n && io.live(); ++i) elem(io, v.emplace_back());
  } else {
    for (auto& e : v) elem(io, e);
  }
}

/// A field whose value the rebuilt world already holds: saved as is; on
/// load, a different value stops the load without latching (refuse()).
template <class Io, class T>
void expect(Io& io, T world) {
  std::conditional_t<std::is_same_v<T, bool>, bool, std::uint64_t> v = world;
  field(io, v);
  if constexpr (kLoading<Io>) {
    if (io.live() && v != world) io.refuse();
  }
}

/// Assembles a checkpoint container in one buffer: the header is written
/// up front and each section is framed straight behind the last, so no
/// second copy of the payloads is ever made.
class Writer {
 public:
  Writer();
  /// Bytes add_section appends for a payload of `payload_size` bytes.
  [[nodiscard]] static std::size_t framed_size(SectionTag tag, std::size_t payload_size);
  /// Makes room for `bytes` more container bytes (framed_size of each
  /// section to come), so appending them never moves the buffer.
  void reserve(std::size_t bytes) { out_.reserve(out_.size() + bytes); }
  /// Frames `payload` (tag, length, CRC) onto the end of the container.
  void add_section(SectionTag tag, std::span<const std::uint8_t> payload);
  /// Patches the section count into the header and hands over the
  /// container; call once. When `payload_offsets` is given, it receives
  /// each section's payload byte offset in the result, in section order
  /// (spill files seek straight to a segment with it).
  [[nodiscard]] std::vector<std::uint8_t> finish(
      std::vector<std::uint64_t>* payload_offsets = nullptr);

 private:
  std::vector<std::uint8_t> out_;
  std::vector<std::uint64_t> payload_offsets_;
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

  /// Borrows the container bytes: the payload spans point into them, so
  /// the caller keeps them alive and unchanged while it reads sections.
  [[nodiscard]] Error load(std::span<const std::uint8_t> bytes);
  /// A temporary would dangle under every payload span.
  Error load(std::vector<std::uint8_t>&&) = delete;

  [[nodiscard]] const std::vector<Section>& sections() const { return sections_; }
  /// First section with `tag`, nullopt when absent.
  [[nodiscard]] std::optional<std::span<const std::uint8_t>> find(SectionTag tag) const;
  /// Every section with `tag`, in file order.
  [[nodiscard]] std::vector<std::span<const std::uint8_t>> find_all(SectionTag tag) const;

 private:
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

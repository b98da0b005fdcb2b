// Deterministic failpoints: named trigger sites the supervision layer can
// arm to inject *system-level* failures — exceptions, I/O errors, stalls,
// allocation pressure — as reproducibly as fault::FaultSpec injects
// simulated ones.
//
// A failpoint site is a string constant compiled into the code path it
// guards (`shard.step`, `poller.poll`, `harvest.merge`, `shard.alloc`,
// `ckpt.save.write`). Sites cost one relaxed atomic load when nothing is
// armed, so they stay in production paths permanently. Arming comes from
// the `--failpoints` mini language (mirroring `--faults`): clauses
// separated by ';', each clause comma-separated key=value pairs, e.g.
//
//   --failpoints "site=shard.step,net=7,action=throw,times=2"
//   --failpoints "site=poller.poll,action=delay,hours=6;site=ckpt.save.write,action=error"
//
// Schedules are deterministic by construction: each armed clause keeps a
// per-entity hit counter, and whether hit N fires is a pure function of
// (clause, entity, N) — `after` skips the first hits, `times` bounds how
// many fire, and `prob`/`seed` draw from a dedicated RNG substream keyed by
// (seed, site, entity) so probabilistic schedules replay bit-identically
// for any worker count (every entity's hits arrive in shard order on
// whatever thread owns the shard).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/rng.hpp"

namespace wlm::failsafe {

/// What a firing failpoint does to the code path that evaluated it.
enum class FailAction : std::uint8_t {
  kThrow,  // throw FailpointError (the generic "this component crashed")
  kError,  // sites polled via failpoint_fails() report an error return
  kDelay,  // accumulate sim-time stall hours; may trip the shard watchdog
  kOom,    // throw std::bad_alloc (allocation pressure at shard.alloc)
};

/// Thrown by kThrow (and by kError at sites evaluated via the throwing
/// entry point — an injected error is still a failure there).
struct FailpointError : std::runtime_error {
  FailpointError(std::string_view site, std::uint64_t entity);
};

/// Thrown when a shard's accumulated injected stall exceeds its sim-time
/// deadline (see ScopedShardContext); the supervisor treats it like any
/// other shard failure.
struct WatchdogTimeout : std::runtime_error {
  WatchdogTimeout(std::uint64_t entity, double delay_hours, double deadline_hours);
};

/// One armed clause of the --failpoints mini language.
struct FailpointSpec {
  std::string site;            // required: which trigger site
  std::uint64_t entity = 0;    // net=N targets one network; default any
  bool any_entity = true;
  FailAction action = FailAction::kThrow;
  std::uint64_t after = 0;     // skip the first `after` hits
  std::uint64_t times = 0;     // fire at most `times` hits; 0 = forever
  double delay_hours = 1.0;    // stall magnitude for action=delay
  double probability = 1.0;    // per-hit firing probability
  std::uint64_t seed = 1;      // substream base for probabilistic schedules

  /// Parses the ';'-separated clause list. On failure returns nullopt and,
  /// if `error` is non-null, a one-line diagnostic naming the bad token.
  [[nodiscard]] static std::optional<std::vector<FailpointSpec>> parse_list(
      std::string_view text, std::string* error = nullptr);

  bool operator==(const FailpointSpec&) const = default;
};

/// The process-global registry of armed failpoints. This is injection
/// configuration, not world state: it is never serialized into checkpoints,
/// and tests arm/disarm it around each scenario. Evaluation takes a mutex —
/// sites sit on per-phase and per-report-period boundaries, never in
/// per-frame loops, and the armed() fast path keeps unarmed processes
/// lock-free.
class FailpointRegistry {
 public:
  void arm(FailpointSpec spec);
  /// Parses and arms a clause list; returns false (arming nothing) on a
  /// parse error.
  bool arm_list(std::string_view text, std::string* error = nullptr);
  void disarm_all();
  [[nodiscard]] bool armed() const { return armed_.load(std::memory_order_relaxed); }

  /// Evaluates `site` for `entity` at a throw-capable call site. Fires at
  /// most one clause per hit (first armed match wins). May throw
  /// FailpointError, WatchdogTimeout (via a delay), or std::bad_alloc.
  void eval(std::string_view site, std::uint64_t entity);

  /// Evaluates `site` at a call site that reports failure by error return
  /// instead of unwinding (ckpt.save.write). Never throws: any firing
  /// clause — whatever its action — reads as "the operation failed".
  [[nodiscard]] bool eval_fails(std::string_view site, std::uint64_t entity);

  /// Lifetime hits of `site` for `entity` (tests pin schedules with this).
  [[nodiscard]] std::uint64_t hits(std::string_view site, std::uint64_t entity) const;

 private:
  struct Armed {
    FailpointSpec spec;
    /// Per-entity hit counters and (for prob < 1) schedule substreams.
    std::map<std::uint64_t, std::uint64_t> hits;
    std::map<std::uint64_t, Rng> rngs;
  };

  /// Returns the firing clause's action, or nullopt. Must be called with
  /// mu_ held; the caller performs the action outside the lock.
  [[nodiscard]] std::optional<FailAction> fire_locked(std::string_view site,
                                                      std::uint64_t entity);

  mutable std::mutex mu_;
  std::vector<Armed> specs_;
  std::atomic<bool> armed_{false};
};

/// The process-global registry every site evaluates against.
[[nodiscard]] FailpointRegistry& failpoints();

/// Thread-local shard context, set by the supervisor around shard work so
/// failpoint sites know which entity they belong to without plumbing ids
/// through every layer, and so injected delays charge against the shard's
/// sim-time watchdog deadline.
class ScopedShardContext {
 public:
  /// `deadline_hours` <= 0 disables the watchdog for this scope.
  ScopedShardContext(std::uint64_t entity, double deadline_hours);
  ~ScopedShardContext();

  ScopedShardContext(const ScopedShardContext&) = delete;
  ScopedShardContext& operator=(const ScopedShardContext&) = delete;

  /// Entity of the innermost context on this thread; 0 when none.
  [[nodiscard]] static std::uint64_t current_entity();
  /// Charges an injected stall to the current context (no-op without one).
  /// Throws WatchdogTimeout once the accumulated stall exceeds the deadline.
  static void add_delay_hours(double hours);
  /// Accumulated stall of the innermost context (tests).
  [[nodiscard]] static double current_delay_hours();

 private:
  ScopedShardContext* prev_;
  std::uint64_t entity_;
  double deadline_hours_;
  double delay_hours_ = 0.0;
};

/// Site evaluation helpers: one relaxed load when nothing is armed.
inline void failpoint(std::string_view site) {
  auto& reg = failpoints();
  if (reg.armed()) reg.eval(site, ScopedShardContext::current_entity());
}

[[nodiscard]] inline bool failpoint_fails(std::string_view site) {
  auto& reg = failpoints();
  return reg.armed() && reg.eval_fails(site, ScopedShardContext::current_entity());
}

}  // namespace wlm::failsafe

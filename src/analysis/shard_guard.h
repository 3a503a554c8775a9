// Shard-ownership instrumentation primitives (execution-model analysis).
//
// A sharded schedule stays faithful to SoftMoW's independent regions (§4.1)
// only while one logical invariant holds: every mutation of shared
// control-plane state happens in an event of the shard that owns the
// structure, and cross-shard effects flow exclusively through the engine's
// window-respecting mailboxes. The engine runs its shards on one thread, so
// nothing races; what this checks is that the shard decomposition is honest
// — that no event reaches into another region's state, and (with the
// checker's late-delivery audit) that no mail lands in a shard's past. This
// header provides the zero-cost-when-off hooks that let a debug build
// *localize* a violation the moment it happens:
//
//   * ShardGuard — embedded in each shared mutable structure (NIB, flow
//     tables, path state, tracer rings, slice budgets, mailboxes). Carries
//     the structure's identity and, once bind_shards pins the hierarchy to
//     an engine, its owning shard.
//   * SHARD_CHECKED(guard, kWrite) — placed at the structure's mutation
//     chokepoints. When a ShardChecker session is active and a shard event
//     is executing, an access from a foreign shard outside a sanctioned
//     handoff is reported with the exact (structure, owning shard,
//     offending event, sim-time) tuple.
//   * HandoffScope — marks the engine's mailbox handoff (the one sanctioned
//     way to touch another shard's state from inside an event).
//
// Everything here is header-only with no softmow dependencies, so the
// lowest layers (obs, dataplane) can include it without inverting the
// library order; the full checker (src/analysis/shard_check.h) sits on top.
//
// Compile-time gate: the SOFTMOW_SHARD_CHECK CMake option defines
// SOFTMOW_SHARD_CHECK=1 globally. Without it every class below is an empty
// shell whose inline no-op members compile away entirely — release builds
// carry no extra loads, branches or storage on any instrumented path.
#pragma once

#include <cstddef>
#include <cstdint>

namespace softmow::analysis {

/// "No owning shard": the structure is either not pinned by bind_shards
/// (bootstrap, synchronous phases) or shared by design; accesses to it are
/// never flagged.
inline constexpr std::size_t kNoShard = static_cast<std::size_t>(-1);

#if defined(SOFTMOW_SHARD_CHECK) && SOFTMOW_SHARD_CHECK
inline constexpr bool kShardCheckCompiled = true;
#else
inline constexpr bool kShardCheckCompiled = false;
#endif

enum class AccessKind : std::uint8_t { kRead, kWrite };

/// One illegal access, reported at the instant it happens: `structure` and
/// `instance` identify the guarded object, `owner` the shard bind_shards
/// pinned it to, and (`accessor`, `when_ns`, `event_seq`) the offending
/// event — the exact blame a Time Warp rollback or partition bug needs.
struct AccessViolation {
  const char* structure = "?";
  std::uint64_t instance = 0;
  std::size_t owner = kNoShard;
  std::size_t accessor = kNoShard;
  std::int64_t when_ns = 0;
  std::uint64_t event_seq = 0;
  AccessKind kind = AccessKind::kWrite;
};

/// Sink vtable a ShardChecker installs for its lifetime. Function pointers
/// (not std::function) keep the inactive check to one load.
struct CheckerHooks {
  void* self = nullptr;
  void (*on_violation)(void* self, const AccessViolation& v) = nullptr;
  /// A sanctioned cross-shard mailbox handoff happened (from -> to).
  void (*on_handoff)(void* self, std::size_t from, std::size_t to) = nullptr;
  /// The engine opened conservative window `index` = [start, horizon).
  void (*on_window)(void* self, std::uint64_t index, std::int64_t start_ns,
                    std::int64_t horizon_ns) = nullptr;
  /// A mailbox message was drained into `dst`'s queue at a barrier;
  /// `dst_now_ns` is the last sim-time `dst` executed. when_ns < dst_now_ns
  /// means the conservative-window invariant broke (a late message).
  void (*on_delivery)(void* self, std::size_t dst, std::int64_t when_ns, std::size_t src,
                      std::uint64_t src_seq, std::int64_t dst_now_ns) = nullptr;
};

#if defined(SOFTMOW_SHARD_CHECK) && SOFTMOW_SHARD_CHECK

namespace detail {
inline CheckerHooks* g_hooks = nullptr;
inline std::uint64_t g_accesses_checked = 0;

/// The event currently executing, stamped by ShardedSimulator::execute_shard
/// around each callback.
struct EventContext {
  std::size_t shard = kNoShard;
  std::int64_t when_ns = 0;
  std::uint64_t seq = 0;
  bool active = false;
};
inline EventContext g_event;
inline int g_handoff_depth = 0;
}  // namespace detail

inline void install_checker_hooks(CheckerHooks* hooks) {
  detail::g_hooks = hooks;
}
inline void uninstall_checker_hooks() {
  detail::g_hooks = nullptr;
}
inline bool checker_active() {
  return detail::g_hooks != nullptr;
}
/// Guarded accesses evaluated while a checker was active (process-wide).
inline std::uint64_t accesses_checked() {
  return detail::g_accesses_checked;
}

// --- engine integration points (called by sim::ShardedSimulator) -------------
inline void set_event_context(std::size_t shard, std::int64_t when_ns, std::uint64_t seq) {
  detail::g_event = detail::EventContext{shard, when_ns, seq, true};
}
inline void clear_event_context() { detail::g_event = detail::EventContext{}; }
inline bool in_checked_event() { return detail::g_event.active; }
inline std::size_t event_shard() { return detail::g_event.shard; }

inline void note_window(std::uint64_t index, std::int64_t start_ns, std::int64_t horizon_ns) {
  CheckerHooks* hooks = detail::g_hooks;
  if (hooks != nullptr && hooks->on_window != nullptr)
    hooks->on_window(hooks->self, index, start_ns, horizon_ns);
}
inline void note_delivery(std::size_t dst, std::int64_t when_ns, std::size_t src,
                          std::uint64_t src_seq, std::int64_t dst_now_ns) {
  CheckerHooks* hooks = detail::g_hooks;
  if (hooks != nullptr && hooks->on_delivery != nullptr)
    hooks->on_delivery(hooks->self, dst, when_ns, src, src_seq, dst_now_ns);
}

/// Marks the dynamic extent of a sanctioned cross-shard handoff (the
/// engine's mailbox push). Foreign-shard guard checks inside the scope are
/// counted as handoffs, not violations.
class HandoffScope {
 public:
  explicit HandoffScope(std::size_t to_shard) {
    ++detail::g_handoff_depth;
    CheckerHooks* hooks = detail::g_hooks;
    if (hooks != nullptr && hooks->on_handoff != nullptr)
      hooks->on_handoff(hooks->self, detail::g_event.shard, to_shard);
  }
  ~HandoffScope() { --detail::g_handoff_depth; }
  HandoffScope(const HandoffScope&) = delete;
  HandoffScope& operator=(const HandoffScope&) = delete;
};

/// The ownership tag embedded in each shared mutable structure. Copy/move
/// keep the identity and owner (snapshots and container growth relocate the
/// owning structure without changing which shard owns it).
class ShardGuard {
 public:
  ShardGuard() = default;
  ShardGuard(const char* structure, std::uint64_t instance)
      : structure_(structure), instance_(instance) {}

  void set_identity(const char* structure, std::uint64_t instance) {
    structure_ = structure;
    instance_ = instance;
  }
  /// Pins the structure to its owning shard (bind_shards) / releases it
  /// (unbind_shards). Unowned structures are never flagged.
  void set_owner(std::size_t shard) { owner_ = shard; }
  void clear_owner() { owner_ = kNoShard; }
  [[nodiscard]] std::size_t owner() const { return owner_; }
  [[nodiscard]] const char* structure() const { return structure_; }
  [[nodiscard]] std::uint64_t instance() const { return instance_; }

  /// The check. Fires only when a checker session is active AND a shard
  /// event is executing AND the structure is owned — bootstrap,
  /// synchronous phases and audits are exempt by construction.
  void check(AccessKind kind) const {
    CheckerHooks* hooks = detail::g_hooks;
    if (hooks == nullptr) return;
    const detail::EventContext& ev = detail::g_event;
    if (!ev.active) return;
    ++detail::g_accesses_checked;
    const std::size_t own = owner_;
    if (own == kNoShard || own == ev.shard) return;
    if (detail::g_handoff_depth > 0) return;  // sanctioned mailbox handoff
    if (hooks->on_violation != nullptr) {
      hooks->on_violation(hooks->self, AccessViolation{structure_, instance_, own, ev.shard,
                                                       ev.when_ns, ev.seq, kind});
    }
  }
  void check_read() const { check(AccessKind::kRead); }
  void check_write() const { check(AccessKind::kWrite); }

 private:
  const char* structure_ = "?";
  std::uint64_t instance_ = 0;
  std::size_t owner_ = kNoShard;
};

#define SHARD_CHECKED(guard, kind) (guard).check(::softmow::analysis::AccessKind::kind)

#else  // !SOFTMOW_SHARD_CHECK — empty shells; everything below compiles away.

inline void install_checker_hooks(CheckerHooks*) {}
inline void uninstall_checker_hooks() {}
inline bool checker_active() { return false; }
inline std::uint64_t accesses_checked() { return 0; }
inline void set_event_context(std::size_t, std::int64_t, std::uint64_t) {}
inline void clear_event_context() {}
inline bool in_checked_event() { return false; }
inline std::size_t event_shard() { return kNoShard; }
inline void note_window(std::uint64_t, std::int64_t, std::int64_t) {}
inline void note_delivery(std::size_t, std::int64_t, std::size_t, std::uint64_t, std::int64_t) {}

class HandoffScope {
 public:
  explicit HandoffScope(std::size_t) {}
};

class ShardGuard {
 public:
  ShardGuard() = default;
  ShardGuard(const char*, std::uint64_t) {}
  void set_identity(const char*, std::uint64_t) {}
  void set_owner(std::size_t) {}
  void clear_owner() {}
  [[nodiscard]] std::size_t owner() const { return kNoShard; }
  [[nodiscard]] const char* structure() const { return "?"; }
  [[nodiscard]] std::uint64_t instance() const { return 0; }
  void check(AccessKind) const {}
  void check_read() const {}
  void check_write() const {}
};

#define SHARD_CHECKED(guard, kind) ((void)0)

#endif  // SOFTMOW_SHARD_CHECK

}  // namespace softmow::analysis

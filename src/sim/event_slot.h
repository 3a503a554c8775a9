// Pooled event storage shared by the sequential `Simulator` oracle and the
// region-sharded engine — the single definition both engines schedule
// through, so their event layouts cannot drift.
//
// The hot path replaces the old std::function-carrying `Event` (one heap
// allocation per scheduled event, 64-byte queue elements) with:
//
//   * SmallFn       — a move-only callable with a 64-byte inline buffer.
//                     Scheduling lambdas that fit (the overwhelming case:
//                     `this` plus a handful of ids) never touch the heap;
//                     oversized captures fall back to one boxed allocation.
//   * EventSlot     — { SmallFn, TraceContext } living in a pool slab.
//   * EventPool     — per-engine / per-shard slab allocator handing out
//                     u32 slot handles with LIFO recycling. Slabs are never
//                     freed mid-run, so a steady-state window allocates
//                     nothing: every pop releases its slot *before* invoking
//                     the callback, and the schedules the callback performs
//                     reuse exactly the slots just vacated.
//   * EventRef      — the 24-byte priority-queue element {when, seq, slot}.
//
// Determinism: slot numbers are a pure function of the per-shard event
// sequence (acquire/release order), never of addresses, so the
// fresh/recycled split exported as sim_alloc_total{kind=...} is
// byte-identical run to run.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/time.h"

namespace softmow::sim {

/// Move-only type-erased `void()` callable with small-buffer optimization.
/// Invoking an empty SmallFn is undefined; engines only invoke slots they
/// populated.
class SmallFn {
 public:
  /// Inline capacity. Sized so a capture of `this` plus ~11 words stays
  /// inline — a discovery frame in transit between switches (hub, endpoint
  /// and payload, 88 bytes) included; larger captures are boxed with a
  /// single allocation.
  static constexpr std::size_t kInlineBytes = 96;

  SmallFn() noexcept = default;

  template <typename F,
            typename = std::enable_if_t<!std::is_same_v<std::decay_t<F>, SmallFn> &&
                                        std::is_invocable_r_v<void, std::decay_t<F>&>>>
  SmallFn(F&& f) {  // NOLINT(google-explicit-constructor): drop-in for std::function
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= kInlineBytes && alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      ops_ = inline_ops<Fn>();
    } else {
      ::new (static_cast<void*>(buf_)) Fn*(new Fn(std::forward<F>(f)));
      ops_ = heap_ops<Fn>();
    }
  }

  SmallFn(SmallFn&& other) noexcept : ops_(other.ops_) {
    if (ops_ != nullptr) ops_->relocate(other.buf_, buf_);
    other.ops_ = nullptr;
  }

  SmallFn& operator=(SmallFn&& other) noexcept {
    if (this != &other) {
      reset();
      ops_ = other.ops_;
      if (ops_ != nullptr) ops_->relocate(other.buf_, buf_);
      other.ops_ = nullptr;
    }
    return *this;
  }

  SmallFn(const SmallFn&) = delete;
  SmallFn& operator=(const SmallFn&) = delete;

  ~SmallFn() { reset(); }

  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

  [[nodiscard]] explicit operator bool() const noexcept { return ops_ != nullptr; }

  void operator()() { ops_->invoke(buf_); }

 private:
  struct Ops {
    void (*invoke)(void* storage);
    /// Move-constructs into `to` and destroys `from` (storage relocation).
    void (*relocate)(void* from, void* to);
    void (*destroy)(void* storage);
  };

  template <typename Fn>
  static const Ops* inline_ops() {
    static constexpr Ops ops = {
        [](void* s) { (*static_cast<Fn*>(s))(); },
        [](void* from, void* to) {
          Fn* src = static_cast<Fn*>(from);
          ::new (to) Fn(std::move(*src));
          src->~Fn();
        },
        [](void* s) { static_cast<Fn*>(s)->~Fn(); }};
    return &ops;
  }

  template <typename Fn>
  static const Ops* heap_ops() {
    static constexpr Ops ops = {
        [](void* s) { (**static_cast<Fn**>(s))(); },
        [](void* from, void* to) { ::new (to) Fn*(*static_cast<Fn**>(from)); },
        [](void* s) { delete *static_cast<Fn**>(s); }};
    return &ops;
  }

  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

/// One pooled event: the callback plus the ambient trace context captured at
/// schedule time. Lives inside an EventPool slab, addressed by slot handle.
struct EventSlot {
  SmallFn fn;
  obs::TraceContext ctx;
};

/// The priority-queue element: trivially copyable, so popping moves 24 bytes
/// instead of a std::function. `slot` is only valid against the pool that
/// issued it, until the matching release().
struct EventRef {
  TimePoint when;
  std::uint64_t seq;
  std::uint32_t slot;
};

/// Min-heap order: (when, seq) — FIFO for same-instant events.
struct EventLater {
  bool operator()(const EventRef& a, const EventRef& b) const {
    if (a.when != b.when) return a.when > b.when;
    return a.seq > b.seq;
  }
};

/// Slab allocator for EventSlots. Not thread-safe: each pool is owned by one
/// engine (or one shard) and touched only under that owner's existing
/// queue discipline. Handles are dense u32s; slabs grow by fixed chunks and
/// are retained until clear(), so steady-state scheduling recycles instead
/// of allocating. Recycling is LIFO — deterministic given the acquire /
/// release sequence, which itself repeats exactly run to run.
class EventPool {
 public:
  static constexpr std::uint32_t kChunkShift = 10;
  static constexpr std::uint32_t kChunkSize = 1u << kChunkShift;  ///< slots per slab
  static constexpr std::uint32_t kChunkMask = kChunkSize - 1;

  EventPool()
      : fresh_counter_(obs::default_registry().counter("sim_alloc_total", {{"kind", "fresh"}})),
        recycled_counter_(
            obs::default_registry().counter("sim_alloc_total", {{"kind", "recycled"}})) {}

  /// Populates a slot with `fn` + `ctx` and returns its handle.
  std::uint32_t acquire(SmallFn fn, const obs::TraceContext& ctx) {
    std::uint32_t slot;
    if (!free_.empty()) {
      slot = free_.back();
      free_.pop_back();
      ++recycled_;
      recycled_counter_->inc();
    } else {
      if ((next_ & kChunkMask) == 0) chunks_.push_back(std::make_unique<EventSlot[]>(kChunkSize));
      slot = next_++;
      ++fresh_;
      fresh_counter_->inc();
    }
    EventSlot& s = at(slot);
    s.fn = std::move(fn);
    s.ctx = ctx;
    return slot;
  }

  [[nodiscard]] EventSlot& at(std::uint32_t slot) {
    return chunks_[slot >> kChunkShift][slot & kChunkMask];
  }

  /// Returns `slot` to the free list. Engines release *before* invoking the
  /// popped callback (after moving fn/ctx out), so schedules performed by
  /// the callback can reuse the slot it arrived in.
  void release(std::uint32_t slot) {
    at(slot).fn.reset();
    free_.push_back(slot);
  }

  /// Drops every slab and live slot (outstanding handles become invalid).
  /// The fresh/recycled totals are monotonic and survive — they back the
  /// sim_alloc_total counters, which must never decrease.
  void clear() {
    chunks_.clear();
    free_.clear();
    next_ = 0;
  }

  /// Slots constructed over the pool's lifetime (== high-water mark of live
  /// events; flat in steady state).
  [[nodiscard]] std::uint64_t fresh_count() const { return fresh_; }
  /// Acquires served from the free list.
  [[nodiscard]] std::uint64_t recycled_count() const { return recycled_; }
  /// Currently outstanding (acquired, not yet released) slots.
  [[nodiscard]] std::size_t live() const { return next_ - free_.size(); }
  [[nodiscard]] std::size_t capacity() const { return chunks_.size() * kChunkSize; }

 private:
  std::vector<std::unique_ptr<EventSlot[]>> chunks_;
  std::vector<std::uint32_t> free_;
  std::uint32_t next_ = 0;  ///< first never-issued slot
  std::uint64_t fresh_ = 0;
  std::uint64_t recycled_ = 0;
  obs::Counter* fresh_counter_;     ///< sim_alloc_total{kind=fresh}
  obs::Counter* recycled_counter_;  ///< sim_alloc_total{kind=recycled}
};

}  // namespace softmow::sim

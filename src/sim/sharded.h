// Region-sharded discrete-event engine.
//
// SoftMoW's regions are independent control domains joined only by
// bounded-latency parent links (§3, §4.1), so the event timeline decomposes
// into one logical shard per leaf region plus one shard per non-leaf
// controller level. Every shard runs on the thread that called run(), under
// *conservative* windows: in each window the engine computes
//
//     W = min over shards of (earliest pending event)
//     H = W + lookahead
//
// and executes, shard by shard in index order, every event with `when < H`.
// Cross-shard work is handed off through per-shard mailboxes stamped with a
// delivery time at least `lookahead` in the future — exactly the
// inter-region propagation delay already modeled by the topology and the
// southbound channels — so a message sent during a window can never land
// inside it, and no shard ever receives an event from its past.
//
// Determinism: the window schedule is a pure function of the event
// timeline. Mailboxes are drained at window barriers sorted by (delivery
// time, sender shard, sender sequence), and each shard executes its queue in
// (when, seq) order, so at a fixed seed every run executes the identical
// event sequence.
//
// This is the only event engine. A bound hierarchy runs on exactly one
// shard per leaf and per non-leaf level (ManagementPlane::bind_shards
// asserts natural_shard_count()); a 1-shard engine is the sequential
// degenerate case that equivalence tests use as their oracle.
//
// Observability: each shard owns an obs::Tracer with a disjoint id range,
// installed as the default_tracer() while the shard runs; after run() the
// shard tracers merge into the caller's tracer in shard-index order, so
// exported span ids and order depend only on the event timeline.
#pragma once

#include <cstdint>
#include <memory>
#include <queue>
#include <vector>

#include "analysis/shard_guard.h"
#include "obs/chrome_trace.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/event_slot.h"
#include "sim/time.h"

namespace softmow::obs {
class TimeSeriesRecorder;
}

namespace softmow::sim {

/// Index of one event shard (a leaf region or a non-leaf controller level).
using ShardId = std::size_t;

class ShardedSimulator {
 public:
  using Callback = SmallFn;

  struct Options {
    /// Ignored: shards always run on the calling thread.
    std::size_t threads = 1;
    /// Conservative synchronization horizon: the minimum cross-shard
    /// propagation delay. Must be > 0.
    Duration lookahead = Duration::millis(1.0);
    /// Per-shard per-window profiling (busy/stall wall time, event, window
    /// and mailbox counts). Off = zero overhead: no clock reads, no
    /// bookkeeping, no profile_* series exported.
    bool profile = false;
  };

  explicit ShardedSimulator(std::size_t shards);
  ShardedSimulator(std::size_t shards, Options opts);
  ~ShardedSimulator();
  ShardedSimulator(const ShardedSimulator&) = delete;
  ShardedSimulator& operator=(const ShardedSimulator&) = delete;

  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
  [[nodiscard]] Duration lookahead() const { return lookahead_; }

  /// Schedules `fn` on `shard`, `delay` after that shard's clock — or, from
  /// inside a running event, after the executing shard's clock. Events at
  /// the same instant run in scheduling order (stable FIFO per shard). The
  /// ambient trace context is captured and restored around the callback.
  /// From inside a running event, scheduling onto another shard is the
  /// cross-shard handoff: the delivery goes through that shard's mailbox,
  /// clamped up to `lookahead` (counted in lookahead_clamps).
  void schedule(ShardId shard, Duration delay, Callback fn);
  void schedule_at(ShardId shard, TimePoint when, Callback fn);

  [[nodiscard]] TimePoint now(ShardId shard) const;
  [[nodiscard]] bool idle() const;

  /// Runs windows until every shard queue and mailbox drains, then merges
  /// the shard tracers into the caller's default_tracer(). Returns events
  /// executed by this call and accumulates wall-clock into wall_ms().
  std::uint64_t run();

  [[nodiscard]] bool running() const { return running_; }
  [[nodiscard]] std::uint64_t events_executed() const { return executed_total_; }
  /// Event-arena totals summed across shards: `fresh` counts slots ever
  /// constructed (the live-event high-water mark), `recycled` counts
  /// acquires served from free lists. A flat fresh count over a
  /// steady-state window means the engine allocates nothing per event.
  [[nodiscard]] std::uint64_t alloc_fresh_total() const;
  [[nodiscard]] std::uint64_t alloc_recycled_total() const;
  [[nodiscard]] std::uint64_t windows_executed() const { return windows_; }
  [[nodiscard]] std::uint64_t cross_shard_posts() const { return cross_posts_; }
  [[nodiscard]] std::uint64_t lookahead_clamps() const { return clamps_; }
  /// Wall-clock milliseconds spent inside run() so far (exported as
  /// bench_wall_ms{phase=sim}).
  [[nodiscard]] double wall_ms() const { return wall_ms_; }

  /// The shard whose event is currently executing. Valid only when
  /// in_shard_event().
  [[nodiscard]] static ShardId current_shard();
  [[nodiscard]] static bool in_shard_event();
  /// True when work bound to `engine` (possibly null) must be posted onto it
  /// rather than run synchronously: the engine is running and the caller is
  /// executing a shard event.
  [[nodiscard]] static bool engine_active(const ShardedSimulator* engine) {
    return engine != nullptr && engine->running() && in_shard_event();
  }

  /// Process-wide sum of every engine's run() wall-clock, for the bench
  /// harness (a bench may build several engines across scenarios).
  [[nodiscard]] static double process_wall_ms();

  [[nodiscard]] bool profiling() const { return profile_; }

  /// Installs a sim-time sampler polled once per window barrier with the
  /// window's start time (a deterministic instant, so the recorded series
  /// are as reproducible as the tracked metrics).
  /// Independent of Options::profile; nullptr detaches.
  void set_sampler(obs::TimeSeriesRecorder* sampler) { sampler_ = sampler; }

  /// Drains the process-wide profiler counter-sample ring (per-window
  /// per-shard busy-ms and events tracks for the Chrome-trace exporter),
  /// in (window, shard) order across every profiled engine run so far.
  /// Returns the drained samples and the count evicted by the ring cap.
  static std::vector<obs::CounterSample> drain_profile_samples(std::uint64_t* dropped = nullptr);

  /// TEST ONLY: disables the cross-shard lookahead clamp so a message can be
  /// stamped into a destination's past — the seeded violation the analysis
  /// checker's late-delivery audit must catch. Never set outside tests.
  void set_clamp_disabled_for_test(bool disabled) { clamp_disabled_for_test_ = disabled; }

 private:
  /// A cross-shard message awaiting delivery at a window barrier. Sorted by
  /// (when, src, src_seq) before delivery so the destination's execution
  /// order depends only on the senders' own sequences. The callable rides
  /// in the mail itself (not a pool slot): it crosses shards, and slot
  /// handles are only meaningful against their owning shard's pool.
  struct Mail {
    TimePoint when;
    ShardId src;
    std::uint64_t src_seq;
    Callback fn;
    obs::TraceContext ctx;
  };
  struct Shard {
    std::priority_queue<EventRef, std::vector<EventRef>, EventLater> queue;
    /// Event arena: slots referenced by `queue`, recycled at pop. Touched
    /// only by the shard's own events, like `queue` itself.
    EventPool pool;
    TimePoint now;
    std::uint64_t seq = 0;       ///< local schedule order (FIFO ties)
    std::uint64_t send_seq = 0;  ///< cross-shard send order
    std::uint64_t executed = 0;
    /// Latest event time executed in the *current* run() (ns; -1 = none yet).
    /// The happens-before audit compares mail stamps against this instead of
    /// `now`: benches reuse one engine across run() phases, and a later
    /// phase's low-clocked mail is not a causality violation against events
    /// a finished phase already executed. Maintained only when the checker
    /// is compiled in.
    std::int64_t audit_now_ns = -1;
    // --- Profiler state (touched only when Options::profile is set).
    std::uint64_t window_busy_ns = 0;   ///< wall ns inside execute_shard this window
    std::uint64_t exec_before = 0;      ///< `executed` snapshot at window start
    std::uint64_t exec_flushed = 0;     ///< `executed` already exported to profile_*
    std::uint64_t sent_flushed = 0;     ///< `send_seq` already exported
    std::uint64_t recv_count = 0;       ///< mailbox messages delivered
    std::uint64_t windows_participated = 0;
    std::uint64_t windows_bounded = 0;  ///< windows whose W this shard's head event set
    std::uint64_t busy_ns = 0;
    std::uint64_t stall_ns = 0;  ///< window wall minus own busy (other shards' turns)
    std::unique_ptr<obs::Tracer> tracer;
    std::vector<Mail> mailbox;
    /// Ownership tag for the shard's event queue + mailbox: owned by the
    /// shard itself from construction; the mailbox push in schedule_at is
    /// the sanctioned cross-shard handoff (HandoffScope).
    analysis::ShardGuard guard;
  };

  void deliver_mail();
  void flush_profile();
  void execute_shard(std::size_t index, TimePoint horizon);

  std::vector<std::unique_ptr<Shard>> shards_;
  Duration lookahead_;
  bool profile_ = false;
  bool clamp_disabled_for_test_ = false;
  bool running_ = false;
  obs::TimeSeriesRecorder* sampler_ = nullptr;
  std::uint64_t executed_total_ = 0;
  std::uint64_t windows_ = 0;
  std::uint64_t windows_flushed_ = 0;
  std::uint64_t cross_posts_ = 0;
  std::uint64_t clamps_ = 0;
  double wall_ms_ = 0;
  obs::Counter* events_counter_;  ///< sim_events_executed_total
};

}  // namespace softmow::sim

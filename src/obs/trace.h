// Sim-clock-aware causal tracing. Spans carry identity (trace_id / span_id /
// parent_id) so one root operation — a bearer setup, a discovery round, a
// failover promotion — becomes a single span *tree* spanning every
// controller level it touched. A TraceContext names a position in that tree
// and is threaded through southbound messages, queueing-station jobs and
// scheduled simulator events; components that open spans under the ambient
// context attach to whatever operation is currently in flight.
//
// Storage is a bounded ring (configurable capacity): when full, the oldest
// closed spans/events are dropped and counted in `trace_dropped_total`
// (registry) / dropped_spans()/dropped_events() (per tracer), so multi-day
// replays cannot grow the trace without limit.
//
// sim/time.h is header-only, so depending on it keeps obs below the sim
// *library* in the link order (sim links obs for its own instrumentation).
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "analysis/shard_guard.h"
#include "sim/time.h"

namespace softmow::obs {

class Counter;
class MetricsRegistry;

/// What a span's time *is* — the unit of critical-path attribution. The
/// paper's Fig. 10 analysis needs queueing separated from service and wire
/// time per controller level.
enum class SpanKind : std::uint8_t {
  kOperation,  ///< a logical operation (self-time counts as processing)
  kQueue,      ///< time spent waiting in a controller's FIFO
  kProcess,    ///< time spent being serviced / computing
  kPropagate,  ///< time on the wire (channel RTT, link latency)
};

/// Short stable tag ("operation", "queue", "process", "propagate").
const char* span_kind_name(SpanKind kind);

/// A position in a span tree: `span_id` is the span new children attach to;
/// `trace_id` names the whole tree. A default-constructed context is
/// invalid (no trace in flight).
struct TraceContext {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;

  [[nodiscard]] bool valid() const { return trace_id != 0; }
  friend bool operator==(const TraceContext&, const TraceContext&) = default;
};

/// A point-in-time occurrence (e.g. "link-down", "promotion"). When recorded
/// under a context, `trace_id`/`parent_id` tie it into the span tree.
struct TraceEvent {
  sim::TimePoint at;
  std::string name;
  int level = 0;        ///< controller level; 0 = outside the hierarchy
  std::string scope;    ///< controller / component name
  std::string detail;   ///< free-form annotation
  std::uint64_t trace_id = 0;   ///< 0 = not part of any trace
  std::uint64_t parent_id = 0;  ///< span this event occurred inside
};

/// A named interval (e.g. one discovery round at one controller).
struct TraceSpan {
  sim::TimePoint begin;
  sim::TimePoint end;
  std::string name;
  int level = 0;
  std::string scope;
  std::string detail;
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_id = 0;  ///< 0 = root of its trace
  SpanKind kind = SpanKind::kOperation;

  [[nodiscard]] sim::Duration duration() const { return end - begin; }
  [[nodiscard]] TraceContext context() const { return TraceContext{trace_id, span_id}; }
};

/// Bounded collector. Not a hot-path structure: spans are recorded per
/// protocol round / RPC, not per data packet.
class Tracer {
 public:
  static constexpr std::size_t kDefaultCapacity = 1 << 16;

  /// Drop counters register in `registry` (default: the process registry).
  explicit Tracer(MetricsRegistry* registry = nullptr);

  // --- causal recording -----------------------------------------------------
  /// Opens a span under `parent` (pass current() or {} for a fresh root
  /// trace) and returns its context, for propagation and for close_span().
  TraceContext open_span_under(TraceContext parent, sim::TimePoint begin, std::string name,
                               int level = 0, std::string scope = {},
                               SpanKind kind = SpanKind::kOperation);
  /// Opens a span under the ambient context.
  TraceContext open_span(sim::TimePoint begin, std::string name, int level = 0,
                         std::string scope = {}, SpanKind kind = SpanKind::kOperation);
  /// Closes an open span; unknown/already-closed contexts are ignored.
  void close_span(TraceContext ctx, sim::TimePoint end, std::string detail = {});
  /// Records a completed child span under `parent` in one call.
  TraceContext span_under(TraceContext parent, sim::TimePoint begin, sim::TimePoint end,
                          std::string name, int level = 0, std::string scope = {},
                          SpanKind kind = SpanKind::kOperation, std::string detail = {});
  /// Records a point event tied to `parent`'s trace.
  void event_under(TraceContext parent, sim::TimePoint at, std::string name, int level = 0,
                   std::string scope = {}, std::string detail = {});

  // --- ambient context ------------------------------------------------------
  /// The innermost context pushed by a live ScopedContext ({} when none).
  [[nodiscard]] TraceContext current() const {
    return ambient_.empty() ? TraceContext{} : ambient_.back();
  }

  /// RAII ambient-context guard. Pushing an invalid context is allowed and
  /// masks any outer context (used by the simulator so one event's context
  /// never leaks into the next).
  class ScopedContext {
   public:
    ScopedContext(Tracer& tracer, TraceContext ctx) : tracer_(&tracer) {
      tracer_->ambient_.push_back(ctx);
    }
    ~ScopedContext() {
      if (tracer_ != nullptr) tracer_->ambient_.pop_back();
    }
    ScopedContext(const ScopedContext&) = delete;
    ScopedContext& operator=(const ScopedContext&) = delete;

   private:
    Tracer* tracer_;
  };

  // --- access ---------------------------------------------------------------
  [[nodiscard]] const std::deque<TraceEvent>& events() const { return events_; }
  [[nodiscard]] const std::deque<TraceSpan>& spans() const { return spans_; }
  /// Spans recorded by controllers at `level`, in recording order.
  [[nodiscard]] std::vector<TraceSpan> spans_at_level(int level) const;
  /// Closed span by id; nullptr when unknown (or still open / dropped).
  [[nodiscard]] const TraceSpan* find_span(std::uint64_t span_id) const;
  /// Closed children of `span_id`, in recording order.
  [[nodiscard]] std::vector<const TraceSpan*> children_of(std::uint64_t span_id) const;

  // --- sharded execution ----------------------------------------------------
  /// Starts span/trace-id allocation at `base` instead of 1. The sharded
  /// simulator gives each shard tracer a disjoint id range so span ids stay
  /// globally unique and each shard's ids depend only on its own event
  /// sequence. Call before recording anything.
  void set_id_base(std::uint64_t base) { next_id_ = base; }

  /// Moves every *closed* span and event out of `src` and appends them here
  /// (oldest evicted first if this tracer's capacity overflows). Dropped
  /// counts transfer too. `src` keeps its id counter and any still-open
  /// spans, so it can continue recording and be merged again later. Merging
  /// shard tracers in shard-index order yields a deterministic combined
  /// stream for the exporters.
  void merge_from(Tracer& src);

  // --- capacity -------------------------------------------------------------
  /// Caps closed spans and events (each) at `capacity`; excess drops oldest
  /// first. Shrinking applies immediately.
  void set_capacity(std::size_t capacity);
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::uint64_t dropped_spans() const { return dropped_spans_; }
  [[nodiscard]] std::uint64_t dropped_events() const { return dropped_events_; }

  void clear();

  /// Shard-ownership tag for the ring (the sharded simulator pins each
  /// shard tracer to its shard). Identity and owner are set by whoever owns
  /// the tracer; unowned tracers are exempt.
  [[nodiscard]] analysis::ShardGuard& guard() { return guard_; }

 private:
  std::uint64_t fresh_id() { return next_id_++; }
  void push_span(TraceSpan span);
  void push_event(TraceEvent ev);

  std::deque<TraceEvent> events_;
  std::deque<TraceSpan> spans_;
  std::map<std::uint64_t, TraceSpan> open_;  ///< open spans, by span_id
  std::vector<TraceContext> ambient_;
  std::uint64_t next_id_ = 1;
  std::size_t capacity_ = kDefaultCapacity;
  std::uint64_t dropped_spans_ = 0;
  std::uint64_t dropped_events_ = 0;
  Counter* dropped_spans_metric_;   ///< trace_dropped_total{buffer=spans}
  Counter* dropped_events_metric_;  ///< trace_dropped_total{buffer=events}
  analysis::ShardGuard guard_{"tracer", 0};
};

/// The ambient tracer: the override installed by set_default_tracer() when
/// one is active (the sharded engine points it at the executing shard's
/// tracer), otherwise the process-wide tracer paired with
/// obs::default_registry().
Tracer& default_tracer();

/// Installs `tracer` as the default_tracer() (nullptr restores the
/// process-wide tracer). Returns the previous override. The override is how
/// the engine routes ambient recording to the shard-owned tracer whose
/// events are executing.
Tracer* set_default_tracer(Tracer* tracer);

/// RAII guard around set_default_tracer().
class DefaultTracerScope {
 public:
  explicit DefaultTracerScope(Tracer* tracer) : prev_(set_default_tracer(tracer)) {}
  ~DefaultTracerScope() { set_default_tracer(prev_); }
  DefaultTracerScope(const DefaultTracerScope&) = delete;
  DefaultTracerScope& operator=(const DefaultTracerScope&) = delete;

 private:
  Tracer* prev_;
};

}  // namespace softmow::obs

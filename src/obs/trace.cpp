#include "obs/trace.h"

#include "obs/metrics.h"

namespace softmow::obs {

const char* span_kind_name(SpanKind kind) {
  switch (kind) {
    case SpanKind::kOperation: return "operation";
    case SpanKind::kQueue: return "queue";
    case SpanKind::kProcess: return "process";
    case SpanKind::kPropagate: return "propagate";
  }
  return "operation";
}

Tracer::Tracer(MetricsRegistry* registry) {
  MetricsRegistry& reg = registry != nullptr ? *registry : default_registry();
  dropped_spans_metric_ = reg.counter("trace_dropped_total", {{"buffer", "spans"}});
  dropped_events_metric_ = reg.counter("trace_dropped_total", {{"buffer", "events"}});
}

void Tracer::push_span(TraceSpan span) {
  SHARD_CHECKED(guard_, kWrite);
  spans_.push_back(std::move(span));
  while (spans_.size() > capacity_) {
    spans_.pop_front();
    ++dropped_spans_;
    dropped_spans_metric_->inc();
  }
}

void Tracer::push_event(TraceEvent ev) {
  SHARD_CHECKED(guard_, kWrite);
  events_.push_back(std::move(ev));
  while (events_.size() > capacity_) {
    events_.pop_front();
    ++dropped_events_;
    dropped_events_metric_->inc();
  }
}

void Tracer::event_under(TraceContext parent, sim::TimePoint at, std::string name, int level,
                         std::string scope, std::string detail) {
  TraceEvent ev{at,     std::move(name),  level,          std::move(scope),
                std::move(detail), parent.trace_id, parent.span_id};
  push_event(std::move(ev));
}

TraceContext Tracer::span_under(TraceContext parent, sim::TimePoint begin, sim::TimePoint end,
                                std::string name, int level, std::string scope, SpanKind kind,
                                std::string detail) {
  TraceSpan s;
  s.begin = begin;
  s.end = end;
  s.name = std::move(name);
  s.level = level;
  s.scope = std::move(scope);
  s.detail = std::move(detail);
  s.span_id = fresh_id();
  s.trace_id = parent.valid() ? parent.trace_id : s.span_id;
  s.parent_id = parent.valid() ? parent.span_id : 0;
  s.kind = kind;
  TraceContext ctx = s.context();
  push_span(std::move(s));
  return ctx;
}

TraceContext Tracer::open_span_under(TraceContext parent, sim::TimePoint begin,
                                     std::string name, int level, std::string scope,
                                     SpanKind kind) {
  TraceSpan s;
  s.begin = begin;
  s.end = begin;
  s.name = std::move(name);
  s.level = level;
  s.scope = std::move(scope);
  s.span_id = fresh_id();
  s.trace_id = parent.valid() ? parent.trace_id : s.span_id;
  s.parent_id = parent.valid() ? parent.span_id : 0;
  s.kind = kind;
  TraceContext ctx = s.context();
  SHARD_CHECKED(guard_, kWrite);
  open_.emplace(s.span_id, std::move(s));
  return ctx;
}

TraceContext Tracer::open_span(sim::TimePoint begin, std::string name, int level,
                               std::string scope, SpanKind kind) {
  return open_span_under(current(), begin, std::move(name), level, std::move(scope), kind);
}

void Tracer::close_span(TraceContext ctx, sim::TimePoint end, std::string detail) {
  auto it = open_.find(ctx.span_id);
  if (it == open_.end()) return;
  TraceSpan s = std::move(it->second);
  open_.erase(it);
  s.end = end;
  if (!detail.empty()) s.detail = std::move(detail);
  push_span(std::move(s));
}

std::vector<TraceSpan> Tracer::spans_at_level(int level) const {
  std::vector<TraceSpan> out;
  for (const TraceSpan& s : spans_)
    if (s.level == level) out.push_back(s);
  return out;
}

const TraceSpan* Tracer::find_span(std::uint64_t span_id) const {
  for (const TraceSpan& s : spans_)
    if (s.span_id == span_id) return &s;
  return nullptr;
}

std::vector<const TraceSpan*> Tracer::children_of(std::uint64_t span_id) const {
  std::vector<const TraceSpan*> out;
  for (const TraceSpan& s : spans_)
    if (s.parent_id == span_id) out.push_back(&s);
  return out;
}

void Tracer::set_capacity(std::size_t capacity) {
  capacity_ = capacity == 0 ? 1 : capacity;
  while (spans_.size() > capacity_) {
    spans_.pop_front();
    ++dropped_spans_;
    dropped_spans_metric_->inc();
  }
  while (events_.size() > capacity_) {
    events_.pop_front();
    ++dropped_events_;
    dropped_events_metric_->inc();
  }
}

void Tracer::merge_from(Tracer& src) {
  if (&src == this) return;
  for (TraceSpan& s : src.spans_) push_span(std::move(s));
  for (TraceEvent& e : src.events_) push_event(std::move(e));
  src.spans_.clear();
  src.events_.clear();
  dropped_spans_ += src.dropped_spans_;
  dropped_events_ += src.dropped_events_;
  src.dropped_spans_ = 0;
  src.dropped_events_ = 0;
}

void Tracer::clear() {
  events_.clear();
  spans_.clear();
  open_.clear();
  dropped_spans_ = 0;
  dropped_events_ = 0;
}

namespace {
thread_local Tracer* t_thread_tracer = nullptr;
}  // namespace

Tracer* set_thread_tracer(Tracer* tracer) {
  Tracer* prev = t_thread_tracer;
  t_thread_tracer = tracer;
  return prev;
}

Tracer& default_tracer() {
  if (t_thread_tracer != nullptr) return *t_thread_tracer;
  static Tracer tracer;
  return tracer;
}

}  // namespace softmow::obs

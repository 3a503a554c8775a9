#include "sim/simulator.h"

#include <cassert>
#include <utility>

namespace softmow::sim {

Simulator::Simulator()
    : events_counter_(obs::default_registry().counter("sim_events_executed_total")) {}

void Simulator::schedule(Duration delay, Callback fn) {
  schedule_at(now_ + delay, std::move(fn));
}

void Simulator::schedule_at(TimePoint when, Callback fn) {
  assert(when >= now_ && "cannot schedule into the past");
  queue_.push(
      EventRef{when, seq_++, pool_.acquire(std::move(fn), obs::default_tracer().current())});
}

bool Simulator::step() {
  if (queue_.empty()) return false;
  EventRef ev = queue_.top();  // trivially copyable — the callable stays pooled
  queue_.pop();
  now_ = ev.when;
  ++executed_;
  events_counter_->inc();
  // Move the callable out and recycle the slot *before* invoking it, so any
  // schedule() the callback performs reuses the slot it arrived in.
  EventSlot& slot = pool_.at(ev.slot);
  SmallFn fn = std::move(slot.fn);
  const obs::TraceContext ctx = slot.ctx;
  pool_.release(ev.slot);
  // Restore the scheduler's context (possibly invalid — that masks any
  // ambient context so one event's trace never bleeds into the next).
  obs::Tracer::ScopedContext scoped(obs::default_tracer(), ctx);
  fn();
  return true;
}

std::uint64_t Simulator::run() {
  std::uint64_t n = 0;
  while (step()) ++n;
  return n;
}

std::uint64_t Simulator::run_until(TimePoint deadline) {
  std::uint64_t n = 0;
  while (!queue_.empty() && queue_.top().when <= deadline) {
    step();
    ++n;
  }
  if (now_ < deadline) now_ = deadline;
  return n;
}

QueueingStation::QueueingStation(Duration service_time, const std::string& station, int level)
    : service_time_(service_time), station_(station), level_(level),
      wait_hist_(obs::default_registry().histogram("sim_queue_wait_us", obs::wait_us_bounds(),
                                                   {{"station", station}})),
      messages_counter_(obs::default_registry().counter("sim_queue_messages_total",
                                                        {{"station", station}})) {}

TimePoint QueueingStation::submit(TimePoint arrival) {
  return submit(arrival, service_time_);
}

TimePoint QueueingStation::submit(TimePoint arrival, Duration service) {
  TimePoint start = arrival > busy_until_ ? arrival : busy_until_;
  total_wait_ += start - arrival;
  wait_hist_->observe((start - arrival).to_micros());
  busy_until_ = start + service;
  ++processed_;
  messages_counter_->inc();
  return busy_until_;
}

TimePoint QueueingStation::submit(TimePoint arrival, Duration service,
                                  const obs::TraceContext& parent) {
  TimePoint start = arrival > busy_until_ ? arrival : busy_until_;
  TimePoint done = submit(arrival, service);
  obs::Tracer& tracer = obs::default_tracer();
  if (start > arrival)
    tracer.span_under(parent, arrival, start, "queue.wait", level_, station_,
                      obs::SpanKind::kQueue);
  tracer.span_under(parent, start, done, "queue.service", level_, station_,
                    obs::SpanKind::kProcess);
  return done;
}

TimePoint QueueingStation::submit_burst(TimePoint at, std::uint64_t n) {
  TimePoint done = at;
  for (std::uint64_t i = 0; i < n; ++i) done = submit(at);
  return done;
}

void QueueingStation::reset() {
  busy_until_ = TimePoint::zero();
  processed_ = 0;
  total_wait_ = Duration{};
}

}  // namespace softmow::sim

#include "sim/queueing.h"

namespace softmow::sim {

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

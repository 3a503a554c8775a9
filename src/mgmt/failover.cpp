#include "mgmt/failover.h"

#include <chrono>

#include "obs/trace.h"

namespace softmow::mgmt {

namespace {

/// Wall-clock microseconds spent in `fn` — checkpoint/promotion cost is real
/// compute (NIB copies, role seizure, re-discovery), not simulated delay.
template <class Fn>
double timed_us(Fn&& fn) {
  auto start = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

HotStandby::HotStandby(reca::Controller& master, southbound::Hub& hub)
    : hub_(&hub),
      id_(master.id()),
      level_(master.level()),
      name_(master.name()),
      label_mode_(master.reca().label_mode()),
      master_(&master) {
  obs::MetricsRegistry& reg = obs::default_registry();
  checkpoints_metric_ = reg.counter("failover_checkpoints_total");
  bytes_metric_ = reg.counter("failover_checkpoint_bytes_total");
  promotions_metric_ = reg.counter("failover_promotions_total");
  sync_us_metric_ = reg.histogram("failover_sync_us", obs::wait_us_bounds());
  promote_us_metric_ = reg.histogram("failover_promote_us", obs::wait_us_bounds());
  sync();
}

void HotStandby::sync(sim::TimePoint at) {
  double us = timed_us([&] {
    // The first sync prices the whole state; later ones only what changed.
    last_sync_bytes_ = ckpt_.sync(*master_).bytes;
    ++checkpoints_;
  });
  checkpoints_metric_->inc();
  bytes_metric_->inc(last_sync_bytes_);
  sync_us_metric_->observe(us);
  obs::Tracer& tracer = obs::default_tracer();
  tracer.event_under(tracer.current(), at, "failover.checkpoint", level_, name_);
}

std::unique_ptr<reca::Controller> HotStandby::promote(
    sim::TimePoint at, std::optional<sim::Duration> modeled_duration) {
  // The promotion is a root span: adoption and re-discovery triggered inside
  // attach beneath it, and its duration is the measured wall-clock cost
  // mapped onto the sim clock starting at `at`.
  obs::Tracer& tracer = obs::default_tracer();
  obs::TraceContext root = tracer.open_span_under({}, at, "failover.promote", level_, name_);
  obs::Tracer::ScopedContext scoped(tracer, root);

  std::unique_ptr<reca::Controller> standby;
  double us = timed_us([&] {
    standby = std::make_unique<reca::Controller>(id_, level_, name_ + "+standby", label_mode_);

    // Restore the non-discoverable state from the checkpoint.
    restore_checkpoint(*standby, ckpt_);

    // Seize the master role on every device (the old master, if alive, is
    // demoted to slave by the role machinery) and redo discovery.
    for (SwitchId sw : ckpt_.devices) {
      standby->adopt_physical_switch(*hub_, sw, dataplane::ControllerRole::kMaster);
    }
    standby->run_link_discovery();
  });
  promotions_metric_->inc();
  promote_us_metric_->observe(us);
  tracer.close_span(root, at + modeled_duration.value_or(sim::Duration::micros(us)),
                    std::to_string(ckpt_.devices.size()) + " devices");
  return standby;
}

}  // namespace softmow::mgmt

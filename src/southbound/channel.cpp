#include "southbound/channel.h"

#include "core/log.h"

namespace softmow::southbound {

const char* message_name(const Message& m) {
  struct Visitor {
    const char* operator()(const Hello&) { return "hello"; }
    const char* operator()(const FeaturesRequest&) { return "features-request"; }
    const char* operator()(const FeaturesReply&) { return "features-reply"; }
    const char* operator()(const GBsAnnounce&) { return "gbs-announce"; }
    const char* operator()(const GMiddleboxAnnounce&) { return "gmb-announce"; }
    const char* operator()(const FlowMod&) { return "flow-mod"; }
    const char* operator()(const PacketOut&) { return "packet-out"; }
    const char* operator()(const PacketIn&) { return "packet-in"; }
    const char* operator()(const PortStatus&) { return "port-status"; }
    const char* operator()(const RoleRequest&) { return "role-request"; }
    const char* operator()(const RoleReply&) { return "role-reply"; }
    const char* operator()(const BarrierRequest&) { return "barrier-request"; }
    const char* operator()(const BarrierReply&) { return "barrier-reply"; }
    const char* operator()(const EchoRequest&) { return "echo-request"; }
    const char* operator()(const EchoReply&) { return "echo-reply"; }
    const char* operator()(const AppMessage& a) { return a.is_response ? "app-response" : "app-request"; }
    const char* operator()(const VFabricUpdate&) { return "vfabric-update"; }
  };
  return std::visit(Visitor{}, m);
}

namespace {

/// Satellite of the fault subsystem: every silently lost message is now
/// accounted for, keyed by why it was lost, so fault runs can assert on
/// `southbound_dropped_total{reason}` instead of grepping debug logs.
void count_dropped(const char* reason, std::uint64_t n = 1) {
  obs::default_registry()
      .counter("southbound_dropped_total", {{"reason", reason}})
      ->inc(n);
}

obs::Counter* impairment_counter(const char* effect) {
  return obs::default_registry().counter("southbound_impairments_total",
                                         {{"effect", effect}});
}

}  // namespace

Channel::Channel() {
  obs::MetricsRegistry& reg = obs::default_registry();
  for (Direction dir : {Direction::kToDevice, Direction::kToController}) {
    const char* name = dir == Direction::kToDevice ? "to_device" : "to_controller";
    lane(dir).messages = reg.counter("southbound_messages_total", {{"direction", name}});
    lane(dir).batches = reg.counter("southbound_batches_total", {{"direction", name}});
  }
}

void Channel::deliver_direct(const Message& m, Direction dir) {
  if (!connected_) {
    count_dropped("disconnected");
    return;
  }
  Handler& h = lane(dir).receiver;
  if (h) {
    h(m);
  } else {
    count_dropped("no_handler");
    SOFTMOW_LOG(LogLevel::kDebug, "channel")
        << "dropping " << message_name(m) << " (no handler bound)";
  }
}

Channel::Fate Channel::roll_impairment(Direction dir, std::uint64_t messages) {
  Fate fate;
  if (!impair_.any()) return fate;
  Rng& rng = lane(dir).impair;
  if (impair_.drop > 0 && rng.bernoulli(impair_.drop)) {
    fate.dropped = true;
    count_dropped("impaired", messages);
    impairment_counter("drop")->inc();
    return fate;
  }
  if (impair_.duplicate > 0 && rng.bernoulli(impair_.duplicate)) {
    fate.duplicated = true;
    impairment_counter("duplicate")->inc();
  }
  if (impair_.delay > 0 && rng.bernoulli(impair_.delay)) {
    fate.extra = impair_.jitter;
    impairment_counter("delay")->inc();
  }
  return fate;
}

void Channel::impair(const Impairment& profile, std::uint64_t seed) {
  impair_ = profile;
  // Distinct streams per direction; each side sends from one shard, so each
  // stream's draws follow that shard's own event order.
  lane(Direction::kToDevice).impair = Rng(seed * 2 + 1);
  lane(Direction::kToController).impair = Rng(seed * 2 + 2);
}

void Channel::send(Direction dir, std::vector<Message> unit) {
  if (!connected_) {
    count_dropped("disconnected", unit.size());
    return;
  }
  if (unit.empty()) return;
  Lane& out = lane(dir);
  out.messages->inc(unit.size());
  out.batches->inc();
  Fate fate = roll_impairment(dir, unit.size());
  if (fate.dropped) return;
  if (sim::ShardedSimulator::engine_active(binding_.engine)) {
    // One engine event delivers the whole unit: a single cross-shard handoff
    // regardless of its size. The engine captures the ambient trace context
    // at post time and restores it around the callback — the same causality
    // rule as the pump.
    const bool down = dir == Direction::kToDevice;
    sim::ShardId shard = down ? binding_.device_shard : binding_.controller_shard;
    sim::Duration delay =
        (down ? binding_.to_device_delay : binding_.to_controller_delay) + fate.extra;
    auto deliver = [this, dir, msgs = std::move(unit)] {
      for (const Message& m : msgs) deliver_direct(m, dir);
    };
    if (fate.duplicated) binding_.engine->post(shard, delay, deliver);
    binding_.engine->post(shard, delay, std::move(deliver));
    return;
  }
  obs::TraceContext ctx = obs::default_tracer().current();
  if (fate.duplicated) {
    for (const Message& m : unit) pending_.push_back(Pending{m, dir, ctx});
  }
  for (Message& m : unit) pending_.push_back(Pending{std::move(m), dir, ctx});
  pump();
}

void Channel::pump() {
  if (pumping_) return;  // already draining higher in the stack
  pumping_ = true;
  while (!pending_.empty() && connected_) {
    Pending entry = std::move(pending_.front());
    pending_.pop_front();
    // Restore the sender's context for the handler: even though the queue
    // flattens nested sends, causality follows the message, not the stack.
    obs::Tracer::ScopedContext scoped(obs::default_tracer(), entry.ctx);
    deliver_direct(entry.msg, entry.dir);
  }
  pumping_ = false;
}

void Channel::disconnect() {
  connected_ = false;
  if (!pending_.empty()) count_dropped("disconnected", pending_.size());
  pending_.clear();
}

}  // namespace softmow::southbound

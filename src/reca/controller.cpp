#include "reca/controller.h"

#include <algorithm>
#include <optional>

#include "core/log.h"

namespace softmow::reca {

using southbound::AppMessage;
using southbound::Channel;
using southbound::DiscoveryPayload;
using southbound::Message;

Controller::Controller(ControllerId id, int level, std::string name, LabelMode label_mode)
    : id_(id),
      level_(level),
      name_(name.empty() ? id.str() : std::move(name)),
      routing_(&nib_, static_cast<std::uint8_t>(level)),
      paths_(this, static_cast<std::uint32_t>(id.value),
             static_cast<std::uint8_t>(level), &nib_),
      discovery_(id, &nib_, this, level),
      abstraction_(id, level, &nib_, &routing_),
      reca_(RecAAgent::Services{id, level, &nib_, &routing_, &paths_, this, &abstraction_},
            label_mode),
      messages_metric_(obs::default_registry().counter(
          "controller_messages_total", {{"level", std::to_string(level)}})) {
  obs::MetricsRegistry& reg = obs::default_registry();
  const obs::Labels by_level{{"level", std::to_string(level)}};
  retries_metric_ = reg.counter("southbound_retries_total", by_level);
  retry_exhausted_metric_ = reg.counter("southbound_retry_exhausted_total", by_level);
  repairs_metric_ = reg.counter("path_repairs_total", by_level);
  resyncs_metric_ = reg.counter("path_resyncs_total", by_level);
  ignored_app_request_metric_ =
      reg.counter("ignored_errors_total", {{"site", "controller.send_app_request"}});
  ignored_app_response_metric_ =
      reg.counter("ignored_errors_total", {{"site", "controller.send_app_response"}});
  ignored_vfabric_metric_ =
      reg.counter("ignored_errors_total", {{"site", "controller.set_vfabric"}});
  nib_.subscribe([this] { abstraction_.mark_dirty(); });
  nib_.guard().set_identity("nib", id.value);
  paths_.guard().set_identity("paths", id.value);
}

Channel* Controller::new_device_channel() {
  auto channel = std::make_unique<Channel>();
  Channel* ch = channel.get();
  owned_channels_.push_back(std::move(channel));
  ch->bind_controller([this, ch](const Message& m) { handle_device_message(ch, m); });
  return ch;
}

void Controller::adopt_physical_switch(southbound::Hub& hub, SwitchId sw,
                                       dataplane::ControllerRole role) {
  Channel* ch = new_device_channel();
  hub.agent(sw)->connect(id_, ch, role);  // triggers Hello -> FeaturesRequest
}

void Controller::adopt_physical_switch_standby(southbound::Hub& hub, SwitchId sw) {
  Channel* ch = new_device_channel();
  hub.agent(sw)->connect_standby(id_, ch);  // triggers Hello -> FeaturesRequest
}

void Controller::release_physical_switch(southbound::Hub& hub, SwitchId sw) {
  if (southbound::SwitchAgent* agent = hub.agent(sw)) agent->disconnect(id_);
  device_channels_.erase(sw);
  // Releasing a switch the NIB never learned about (disconnect raced the
  // FeaturesReply) is fine — there is simply nothing to forget.
  (void)nib_.remove_switch(sw);
}

void Controller::adopt_child(Controller& child) {
  Channel* ch = new_device_channel();
  child_by_gswitch_[child.abstraction().gswitch_id()] = &child;
  child.reca().connect_to_parent(ch);  // triggers Hello -> FeaturesRequest
}

std::vector<SwitchId> Controller::devices() const {
  std::vector<SwitchId> out;
  out.reserve(device_channels_.size());
  for (const auto& [sw, ch] : device_channels_) out.push_back(sw);
  return out;
}

Controller* Controller::child_by_gswitch(SwitchId gswitch) const {
  auto it = child_by_gswitch_.find(gswitch);
  return it == child_by_gswitch_.end() ? nullptr : it->second;
}

std::vector<Controller*> Controller::children() const {
  std::vector<Controller*> out;
  for (const auto& [gs, c] : child_by_gswitch_) out.push_back(c);
  return out;
}

Result<void> Controller::send(SwitchId sw, const Message& msg) {
  auto it = device_channels_.find(sw);
  if (it == device_channels_.end())
    return {ErrorCode::kNotFound, name_ + " has no device " + sw.str()};
  it->second->send_to_device({msg});
  return Ok();
}

Result<void> Controller::send_batch(SwitchId sw, std::span<const Message> batch) {
  if (batch.empty()) return Ok();
  auto it = device_channels_.find(sw);
  if (it == device_channels_.end())
    return {ErrorCode::kNotFound, name_ + " has no device " + sw.str()};
  if (reliable_)
    return send_reliable(sw, it->second, std::vector<Message>(batch.begin(), batch.end()));
  it->second->send_to_device(std::vector<Message>(batch.begin(), batch.end()));
  return Ok();
}

void Controller::set_reliable_delivery(bool on) {
  reliable_ = on;
  if (!on) pending_acks_.clear();
}

Result<void> Controller::send_reliable(SwitchId sw, southbound::Channel* ch,
                                       std::vector<Message> msgs) {
  // Namespaced xid: high word is the controller, so the switch's broadcast
  // BarrierReply is claimed only by the controller that asked for it.
  std::uint64_t xid = (id_.value << 32) | (barrier_seq_++ & 0xffffffffULL);
  msgs.push_back(southbound::BarrierRequest{Xid{xid}});
  pending_acks_.emplace(
      xid, PendingAck{sw, std::move(msgs), 1, kRetryBaseTimeout});
  if (sim::ShardedSimulator::engine_active(engine_)) {
    auto p = pending_acks_.find(xid);
    ch->send_to_device(std::vector<Message>(p->second.batch));
    arm_retry_timer(xid);
    return Ok();
  }
  // Synchronous pump: each attempt's round trip (including the BarrierReply)
  // completes inside the send, so the ack is observable right after it.
  for (int attempt = 1;; ++attempt) {
    auto p = pending_acks_.find(xid);
    if (p == pending_acks_.end()) return Ok();  // acked
    ch->send_to_device(std::vector<Message>(p->second.batch));
    if (pending_acks_.find(xid) == pending_acks_.end()) return Ok();
    if (attempt >= kRetryMaxAttempts) {
      pending_acks_.erase(xid);
      retry_exhausted_metric_->inc();
      SOFTMOW_LOG(LogLevel::kWarn, "controller")
          << name_ << " gave up on barrier " << xid << " to " << sw.str();
      return Ok();  // best-effort beyond this point; a resync sweep repairs
    }
    retries_metric_->inc();
  }
}

void Controller::arm_retry_timer(std::uint64_t xid) {
  auto it = pending_acks_.find(xid);
  if (it == pending_acks_.end()) return;
  engine_->schedule(shard_, it->second.timeout, [this, xid] {
    auto p = pending_acks_.find(xid);
    if (p == pending_acks_.end()) return;  // acked while the timer ran
    if (p->second.attempts >= kRetryMaxAttempts) {
      retry_exhausted_metric_->inc();
      SOFTMOW_LOG(LogLevel::kWarn, "controller")
          << name_ << " gave up on barrier " << xid << " to " << p->second.sw.str();
      pending_acks_.erase(p);
      return;
    }
    ++p->second.attempts;
    retries_metric_->inc();
    p->second.timeout =
        std::min(p->second.timeout * kRetryBackoff, kRetryMaxTimeout);
    auto ch = device_channels_.find(p->second.sw);
    if (ch != device_channels_.end())
      ch->second->send_to_device(std::vector<Message>(p->second.batch));
    arm_retry_timer(xid);
  });
}

southbound::Channel* Controller::device_channel(SwitchId sw) const {
  auto it = device_channels_.find(sw);
  return it == device_channels_.end() ? nullptr : it->second;
}

void Controller::set_device_impairment(const southbound::Impairment& profile,
                                       std::uint64_t seed) {
  for (auto& [sw, ch] : device_channels_)
    ch->impair(profile, seed * 1000003ULL + sw.value);
}

void Controller::clear_device_impairment() {
  for (auto& [sw, ch] : device_channels_) ch->clear_impairment();
}

void Controller::bind_shards(sim::ShardedSimulator* engine, sim::ShardId self_shard,
                             sim::Duration cross_shard_delay,
                             const std::function<sim::ShardId(SwitchId)>& shard_of_device) {
  shard_ = self_shard;
  engine_ = engine;
  // Pin this controller's mutable state to its shard for the checker: any
  // engine event mutating it from another shard is a race finding.
  nib_.guard().set_owner(self_shard);
  paths_.guard().set_owner(self_shard);
  for (auto& [sw, ch] : device_channels_) {
    sim::ShardId device_shard = shard_of_device ? shard_of_device(sw) : self_shard;
    southbound::Channel::ShardBinding binding;
    binding.engine = engine;
    binding.controller_shard = self_shard;
    binding.device_shard = device_shard;
    binding.to_device_delay =
        device_shard == self_shard ? sim::Duration{} : cross_shard_delay;
    binding.to_controller_delay = binding.to_device_delay;
    ch->bind_shards(binding);
  }
}

void Controller::unbind_shards() {
  shard_ = 0;
  engine_ = nullptr;
  nib_.guard().clear_owner();
  paths_.guard().clear_owner();
  for (auto& ch : owned_channels_) ch->unbind_shards();
}

std::pair<std::size_t, std::size_t> Controller::repair_paths() {
  std::size_t repaired = 0, failed = 0;
  for (PathId id : paths_.paths()) {
    const nos::InstalledPath* installed = paths_.path(id);
    if (nos::route_intact(nib_, installed->route)) continue;

    nos::RoutingRequest request;
    request.source = installed->route.source;
    if (installed->route.internet_bound()) {
      request.dst_prefix = installed->route.prefix;  // may pick a new egress
    } else {
      request.dst = installed->route.exit;
    }
    auto route = routing_.route(request);
    // Re-route in place, so every owner of the id (bearer records, RecA
    // cookie maps) keeps a live path; with no alternative the path is torn
    // down and erased instead of keeping stale rules.
    auto rerouted = route.ok() ? paths_.reroute(id, *route) : paths_.deactivate(id);
    if (route.ok() && rerouted.ok()) ++repaired;
    else ++failed;
  }
  repairs_metric_->inc(repaired);
  return {repaired, failed};
}

void Controller::refresh_abstraction() {
  abstraction_.refresh();
  reca_.announce();
}

void Controller::register_child_app_handler(std::string type, ChildAppHandler h) {
  child_app_handlers_[std::move(type)] = std::move(h);
}

std::uint64_t Controller::send_app_request(
    SwitchId child_gswitch, AppMessage msg,
    std::function<void(const southbound::AppMessage&)> on_response) {
  msg.request_id = next_request_++;
  msg.is_response = false;
  if (!msg.ctx.valid()) msg.ctx = obs::default_tracer().current();
  if (on_response) pending_child_requests_[msg.request_id] = std::move(on_response);
  if (!send(child_gswitch, msg).ok()) {
    // No channel to that child (it left this controller): no response can
    // come back, so the callback goes too.
    pending_child_requests_.erase(msg.request_id);
    ignored_app_request_metric_->inc();
  }
  return msg.request_id;
}

void Controller::send_app_response(SwitchId child_gswitch, std::uint64_t request_id,
                                   AppMessage response) {
  response.request_id = request_id;
  response.is_response = true;
  if (!response.ctx.valid()) response.ctx = obs::default_tracer().current();
  // The requesting child left this controller before the answer: it is lost.
  if (!send(child_gswitch, response).ok()) ignored_app_response_metric_->inc();
}

void Controller::handle_device_message(Channel* ch, const Message& msg) {
  ++messages_handled_;
  messages_metric_->inc();

  if (const auto* hello = std::get_if<southbound::Hello>(&msg)) {
    // A Hello on a switch we already adopted is a reconnect after a crash:
    // its tables rebooted empty, so once the FeaturesReply refreshes the
    // NIB we must re-push every rule our paths placed there.
    if (device_channels_.count(hello->sw) != 0) pending_resync_.insert(hello->sw);
    device_channels_[hello->sw] = ch;
    discovery_.on_hello(hello->sw);
    return;
  }
  if (const auto* features = std::get_if<southbound::FeaturesReply>(&msg)) {
    discovery_.on_features_reply(*features);
    if (pending_resync_.erase(features->sw) != 0) {
      std::size_t pushed = paths_.resync_switch(features->sw);
      if (pushed != 0) resyncs_metric_->inc();
      SOFTMOW_LOG(LogLevel::kInfo, "controller")
          << name_ << " resynced " << pushed << " rules to " << features->sw.str();
    }
    return;
  }
  if (const auto* barrier = std::get_if<southbound::BarrierReply>(&msg)) {
    pending_acks_.erase(barrier->xid.value);
    return;
  }
  if (const auto* in = std::get_if<southbound::PacketIn>(&msg)) {
    if (const auto* disc = std::get_if<DiscoveryPayload>(&in->body)) {
      DiscoveryPayload payload = *disc;
      Endpoint at{in->sw, in->in_port};
      switch (discovery_.on_discovery_packet_in(at, payload)) {
        case nos::DiscoveryVerdict::kConsumed:
        case nos::DiscoveryVerdict::kDrop:
          return;
        case nos::DiscoveryVerdict::kForward:
          discovery_.stats_mutable().frames_forwarded_up++;
          reca_.forward_discovery_up(at, std::move(payload));
          return;
      }
      return;
    }
    if (const auto* pkt = std::get_if<Packet>(&in->body)) {
      if (packet_in_handler_) packet_in_handler_(in->sw, in->in_port, *pkt);
      return;
    }
    return;
  }
  if (const auto* gbs = std::get_if<southbound::GBsAnnounce>(&msg)) {
    nib_.upsert_gbs(*gbs);
    return;
  }
  if (const auto* gmb = std::get_if<southbound::GMiddleboxAnnounce>(&msg)) {
    nib_.upsert_middlebox(*gmb);
    return;
  }
  if (const auto* vf = std::get_if<southbound::VFabricUpdate>(&msg)) {
    // An update for a G-switch the NIB does not hold (it raced the child's
    // FeaturesReply or its removal) has nothing to update.
    if (!nib_.set_vfabric(vf->sw, vf->entries).ok()) ignored_vfabric_metric_->inc();
    return;
  }
  if (const auto* status = std::get_if<southbound::PortStatus>(&msg)) {
    if (nos::SwitchRecord* rec = nib_.sw_mutable(status->sw)) {
      Endpoint at{status->sw, status->desc.port};
      if (status->reason == southbound::PortStatus::Reason::kDelete) {
        rec->ports.erase(status->desc.port);
        nib_.remove_links_at(at);
      } else {
        rec->ports[status->desc.port] = status->desc;
        // §6: a link failure is visible to the controller that discovered
        // the link; mark it unusable so routing avoids it immediately.
        nib_.set_links_at_up(at, status->desc.up);
      }
      abstraction_.mark_dirty();
      // Self-healing (§6): re-route the paths this failure broke without
      // waiting for an operator-driven repair pass.
      // repair_paths() returns counts, not an error; path_repairs_total
      // already records them.
      if (self_heal_ && !status->desc.up) repair_paths();
    }
    return;
  }
  if (const auto* app = std::get_if<AppMessage>(&msg)) {
    // Rejoin the operation the message belongs to (set by the sender when it
    // delegated up or requested down).
    std::optional<obs::Tracer::ScopedContext> scoped;
    if (app->ctx.valid()) scoped.emplace(obs::default_tracer(), app->ctx);
    if (app->is_response) {
      auto it = pending_child_requests_.find(app->request_id);
      if (it != pending_child_requests_.end()) {
        auto cb = std::move(it->second);
        pending_child_requests_.erase(it);
        cb(*app);
      }
      return;
    }
    auto it = child_app_handlers_.find(app->type);
    SwitchId from;
    for (const auto& [sw, channel] : device_channels_) {
      if (channel == ch) {
        from = sw;
        break;
      }
    }
    if (it != child_app_handlers_.end()) {
      it->second(from, *app);
    } else {
      SOFTMOW_LOG(LogLevel::kWarn, "controller")
          << name_ << " no handler for child app message '" << app->type << "'";
    }
    return;
  }
  // RoleReply / EchoReply and others need no action here.
}

}  // namespace softmow::reca

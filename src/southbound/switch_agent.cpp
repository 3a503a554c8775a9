#include "southbound/switch_agent.h"

#include "core/log.h"
#include "obs/metrics.h"

namespace softmow::southbound {

namespace {

void count_agent_dropped(const char* reason, std::uint64_t n = 1) {
  obs::default_registry()
      .counter("southbound_dropped_total", {{"reason", reason}})
      ->inc(n);
}

}  // namespace

SwitchAgent* Hub::agent(SwitchId sw) {
  auto it = agents_.find(sw);
  if (it != agents_.end()) return it->second.get();
  if (net_->sw(sw) == nullptr) return nullptr;
  auto agent = std::make_unique<SwitchAgent>(this, sw);
  SwitchAgent* raw = agent.get();
  agents_.emplace(sw, std::move(agent));
  return raw;
}

SwitchAgent* Hub::find_agent(SwitchId sw) const {
  auto it = agents_.find(sw);
  return it == agents_.end() ? nullptr : it->second.get();
}

void Hub::bind_shards(sim::ShardedSimulator* engine,
                      std::unordered_map<SwitchId, sim::ShardId> owners) {
  engine_ = engine;
  owners_ = std::move(owners);
}

void Hub::unbind_shards() {
  engine_ = nullptr;
  owners_.clear();
}

sim::ShardId Hub::owner_of(SwitchId sw) const {
  auto it = owners_.find(sw);
  return it == owners_.end() ? sim::ShardId{0} : it->second;
}

void Hub::notify_port_status(Endpoint at, bool up) {
  SwitchAgent* a = agent(at.sw);
  if (a == nullptr) return;
  const dataplane::Switch* s = net_->sw(at.sw);
  const dataplane::Port* port = s->port(at.port);
  if (port == nullptr) return;
  PortStatus status;
  status.reason = PortStatus::Reason::kModify;
  status.sw = at.sw;
  status.desc.port = at.port;
  status.desc.up = up;
  status.desc.peer = port->peer;
  status.desc.egress = port->egress;
  status.desc.bs_group = port->bs_group;
  status.desc.middlebox = port->middlebox;
  a->send_port_status(status);
}

void Hub::deliver_packet_ins(const dataplane::DeliveryReport& report) {
  for (const dataplane::PacketInEvent& ev : report.packet_ins) {
    if (SwitchAgent* a = agent(ev.sw)) a->punt(ev);
  }
}

SwitchAgent::SwitchAgent(Hub* hub, SwitchId sw) : hub_(hub), sw_(sw) {}

dataplane::Switch* SwitchAgent::sw_ptr() { return hub_->net()->sw(sw_); }

void SwitchAgent::connect(ControllerId controller, Channel* channel,
                          dataplane::ControllerRole role) {
  channels_[controller] = channel;
  sw_ptr()->set_controller_role(controller, role);
  channel->bind_device([this](const Message& m) { handle(m); });
  channel->send_to_controller({Hello{sw_}});
}

void SwitchAgent::disconnect(ControllerId controller) {
  channels_.erase(controller);
  if (dataplane::Switch* s = sw_ptr()) s->remove_controller(controller);
}

void SwitchAgent::connect_standby(ControllerId controller, Channel* channel) {
  standby_channels_[controller] = channel;
  channel->bind_device([this](const Message& m) { handle(m); });
  channel->send_to_controller({Hello{sw_}});
}

bool SwitchAgent::promote_standby(ControllerId controller, dataplane::ControllerRole role) {
  auto it = standby_channels_.find(controller);
  if (it == standby_channels_.end()) return false;
  channels_[controller] = it->second;
  standby_channels_.erase(it);
  sw_ptr()->set_controller_role(controller, role);
  return true;
}

void SwitchAgent::drop_standby(ControllerId controller) { standby_channels_.erase(controller); }

std::vector<PortDesc> SwitchAgent::port_descs() const {
  std::vector<PortDesc> out;
  const dataplane::Switch* s = hub_->net()->sw(sw_);
  for (const auto& [pid, port] : s->ports()) {
    PortDesc d;
    d.port = pid;
    d.up = port.up;
    d.peer = port.peer;
    d.egress = port.egress;
    d.bs_group = port.bs_group;
    d.middlebox = port.middlebox;
    out.push_back(d);
  }
  return out;
}

void SwitchAgent::crash() {
  if (!alive_) return;
  alive_ = false;
  // Flow tables are volatile: a crashed switch reboots empty (§6).
  if (dataplane::Switch* s = sw_ptr()) s->table().clear();
}

void SwitchAgent::restart() {
  if (alive_) return;
  alive_ = true;
  for (auto& [c, ch] : channels_) ch->send_to_controller({Hello{sw_}});
}

void SwitchAgent::send_to_controllers(const Message& msg) {
  if (!alive_) {
    count_agent_dropped("switch_down");
    return;
  }
  dataplane::Switch* s = sw_ptr();
  if (s == nullptr) return;
  for (ControllerId c : s->event_receivers()) {
    auto it = channels_.find(c);
    if (it != channels_.end()) it->second->send_to_controller({msg});
  }
}

void SwitchAgent::receive_frame(Endpoint at, const DiscoveryPayload& payload) {
  PacketIn in;
  in.sw = at.sw;
  in.in_port = at.port;
  in.body = payload;
  in.table_miss = false;
  send_to_controllers(in);
}

void SwitchAgent::punt(const dataplane::PacketInEvent& ev) {
  PacketIn in;
  in.sw = ev.sw;
  in.in_port = ev.in_port;
  in.body = ev.packet;
  in.table_miss = ev.table_miss;
  send_to_controllers(in);
}

void SwitchAgent::handle(const Message& msg) {
  if (!alive_) {
    count_agent_dropped("switch_down");
    return;
  }
  dataplane::PhysicalNetwork* net = hub_->net();
  dataplane::Switch* s = sw_ptr();
  if (s == nullptr) return;

  if (const auto* req = std::get_if<FeaturesRequest>(&msg)) {
    FeaturesReply reply;
    reply.xid = req->xid;
    reply.sw = sw_;
    reply.is_gswitch = false;
    reply.ports = port_descs();
    // Reply goes only to the requester; with a single channel per controller
    // we cannot tell which controller asked, so reply on all bound channels —
    // controllers match replies by xid. Parked standby sessions are included:
    // their handshake must resolve so the migration target learns the
    // switch's ports before the flip.
    for (auto& [c, ch] : channels_) ch->send_to_controller({reply});
    for (auto& [c, ch] : standby_channels_) ch->send_to_controller({reply});
    return;
  }

  if (const auto* mod = std::get_if<FlowMod>(&msg)) {
    switch (mod->op) {
      case FlowMod::Op::kAdd:
        if (auto installed = s->table().install(mod->rule); !installed.ok()) {
          SOFTMOW_LOG(LogLevel::kWarn, "agent")
              << sw_.str() << " rejected flow-mod: " << installed.error().message;
        }
        break;
      // Removal of an already-gone rule is not an error at the device: the
      // controller may retransmit teardowns (rollback after a failed setup).
      case FlowMod::Op::kRemoveByCookie: (void)s->table().remove_by_cookie(mod->cookie); break;
      case FlowMod::Op::kRemoveByMatch: (void)s->table().remove_by_match(mod->rule.match); break;
    }
    return;
  }

  if (const auto* out = std::get_if<PacketOut>(&msg)) {
    Endpoint from{sw_, out->port};
    if (const auto* disc = std::get_if<DiscoveryPayload>(&out->body)) {
      // Transmit the discovery frame over the physical link at `from`.
      const dataplane::Link* link = net->link_at(from);
      if (link == nullptr || !link->up) {
        count_agent_dropped("unwired_port");
        SOFTMOW_LOG(LogLevel::kTrace, "agent")
            << sw_.str() << " discovery frame out unwired/down port " << out->port.str();
        return;  // frame lost; no link here (§4.1.2: message dropped)
      }
      DiscoveryPayload p = *disc;
      p.meta.latency_us = link->latency.to_micros();
      p.meta.bandwidth_kbps = link->available_kbps();
      p.meta.filled = true;
      if (sim::ShardedSimulator::engine_active(hub_->engine())) {
        // Physical transit over the engine: the frame lands on the peer
        // switch's owning shard after the link latency — cross-region links
        // become cross-shard mailbox hops.
        Hub* hub = hub_;
        Endpoint to = link->other(from);
        hub_->engine()->schedule(hub_->owner_of(to.sw), link->latency,
                                 [hub, to, frame = std::move(p)] {
                                   if (SwitchAgent* a = hub->find_agent(to.sw))
                                     a->receive_frame(to, frame);
                                 });
        return;
      }
      const Endpoint peer = link->other(from);
      if (SwitchAgent* peer_agent = hub_->agent(peer.sw)) peer_agent->receive_frame(peer, p);
      return;
    }
    if (const auto* pkt = std::get_if<Packet>(&out->body)) {
      // Inject the packet onto the link; it resumes processing at the peer.
      auto peer = net->peer_of(from);
      if (!peer) return;
      auto report = net->inject_at(*pkt, *peer);
      hub_->deliver_packet_ins(report);
      return;
    }
  }

  if (const auto* role = std::get_if<RoleRequest>(&msg)) {
    s->set_controller_role(role->controller, role->role);
    auto it = channels_.find(role->controller);
    if (it != channels_.end())
      it->second->send_to_controller({RoleReply{role->xid, sw_, true}});
    return;
  }

  if (const auto* barrier = std::get_if<BarrierRequest>(&msg)) {
    // Message processing is serialized per agent, so a barrier is trivially
    // satisfied once it is handled.
    for (auto& [c, ch] : channels_) ch->send_to_controller({BarrierReply{barrier->xid}});
    return;
  }

  if (const auto* echo = std::get_if<EchoRequest>(&msg)) {
    for (auto& [c, ch] : channels_) ch->send_to_controller({EchoReply{echo->xid}});
    return;
  }

  SOFTMOW_LOG(LogLevel::kDebug, "agent")
      << sw_.str() << " ignoring " << message_name(msg);
}

}  // namespace softmow::southbound

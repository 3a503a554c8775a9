#include "reca/agent.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "core/log.h"

namespace softmow::reca {

using southbound::AppMessage;
using southbound::DiscoveryPayload;
using southbound::FeaturesReply;
using southbound::FeaturesRequest;
using southbound::FlowMod;
using southbound::GBsAnnounce;
using southbound::GMiddleboxAnnounce;
using southbound::Message;
using southbound::PacketIn;
using southbound::PacketOut;
using southbound::VFabricUpdate;

RecAAgent::RecAAgent(Services services, LabelMode mode) : s_(services), mode_(mode) {}

void RecAAgent::connect_to_parent(southbound::Channel* ch) {
  parent_ = ch;
  ch->bind_device([this](const Message& m) { handle_from_parent(m); });
  ch->send_to_controller({southbound::Hello{s_.abstraction->gswitch_id()}});
  announce();
}

void RecAAgent::announce() {
  if (parent_ == nullptr) return;
  s_.abstraction->refresh();

  // Withdraw G-BSes that disappeared since the last announcement.
  std::set<GBsId> current;
  for (const GBsAnnounce& g : s_.abstraction->exposed_gbs()) current.insert(g.gbs);
  for (GBsId old : announced_gbs_) {
    if (!current.contains(old)) {
      GBsAnnounce withdraw;
      withdraw.gbs = old;
      withdraw.withdrawn = true;
      // Scope the withdrawal to our own G-switch so it cannot clobber a
      // re-announcement by the G-BS's new region (§5.3.2 reconfiguration).
      withdraw.attached_switch = s_.abstraction->gswitch_id();
      parent_->send_to_controller({std::move(withdraw)});
    }
  }
  announced_gbs_ = current;

  for (const GBsAnnounce& g : s_.abstraction->exposed_gbs()) parent_->send_to_controller({g});
  for (const GMiddleboxAnnounce& m : s_.abstraction->exposed_gmbs())
    parent_->send_to_controller({m});

  VFabricUpdate update;
  update.sw = s_.abstraction->gswitch_id();
  update.entries = s_.abstraction->features().vfabric;
  parent_->send_to_controller({update});

  // Unsolicited FeaturesReply keeps the parent's port list fresh after
  // reconfiguration (the parent prunes links on withdrawn ports).
  parent_->send_to_controller({s_.abstraction->features()});

  announced_ = update.entries;
  in_sync_generation_ = s_.abstraction->vfabric_generation();
}

void RecAAgent::maybe_announce_vfabric() {
  if (parent_ == nullptr) return;
  s_.abstraction->refresh();
  if (s_.abstraction->vfabric_generation() == in_sync_generation_) return;
  in_sync_generation_ = s_.abstraction->vfabric_generation();
  const auto& entries = s_.abstraction->features().vfabric;
  bool drifted = entries.size() != announced_.size();
  for (std::size_t i = 0; i < entries.size() && !drifted; ++i) {
    const southbound::VFabricEntry& e = entries[i];
    const southbound::VFabricEntry& was = announced_[i];
    if (e.from != was.from || e.to != was.to) {
      drifted = true;
      break;
    }
    double base = std::max(was.metrics.bandwidth_kbps, 1e-9);
    if (std::abs(e.metrics.bandwidth_kbps - was.metrics.bandwidth_kbps) / base >
        vfabric_threshold_)
      drifted = true;
  }
  if (!drifted) return;

  VFabricUpdate update;
  update.sw = s_.abstraction->gswitch_id();
  update.entries = entries;
  parent_->send_to_controller({std::move(update)});
  ++vfabric_updates_sent_;
  announced_ = entries;
}

void RecAAgent::handle_from_parent(const Message& msg) {
  if (const auto* req = std::get_if<FeaturesRequest>(&msg)) {
    s_.abstraction->refresh();
    FeaturesReply reply = s_.abstraction->features();
    reply.xid = req->xid;
    parent_->send_to_controller({std::move(reply)});
    return;
  }
  if (const auto* mod = std::get_if<FlowMod>(&msg)) {
    translate_flow_mod(*mod);
    return;
  }
  if (const auto* out = std::get_if<PacketOut>(&msg)) {
    if (std::holds_alternative<DiscoveryPayload>(out->body)) {
      handle_discovery_down(*out);
      return;
    }
    // A raw packet sent out of a G-switch port: forward it out of the mapped
    // local port.
    auto local = s_.abstraction->to_local(out->port);
    if (!local) return;
    PacketOut down;
    down.sw = local->sw;
    down.port = local->port;
    down.body = out->body;
    // Fails only when the mapped switch has left this controller since the
    // mapping was exposed: the packet is lost, as on a downed link.
    (void)s_.bus->send(local->sw, down);
    return;
  }
  if (const auto* app = std::get_if<AppMessage>(&msg)) {
    ++stats_.app_down;
    // The message's own context outranks the ambient one (responses to a
    // delegated request must rejoin the operation that originated it).
    std::optional<obs::Tracer::ScopedContext> scoped;
    if (app->ctx.valid()) scoped.emplace(obs::default_tracer(), app->ctx);
    if (app->is_response) {
      auto it = pending_.find(app->request_id);
      if (it != pending_.end()) {
        auto cb = std::move(it->second);
        pending_.erase(it);
        cb(*app);
      }
      return;
    }
    auto it = app_handlers_.find(app->type);
    if (it != app_handlers_.end()) {
      it->second(*app);
    } else {
      SOFTMOW_LOG(LogLevel::kWarn, "reca")
          << s_.self.str() << " no handler for app message type '" << app->type << "'";
    }
    return;
  }
  if (const auto* role = std::get_if<southbound::RoleRequest>(&msg)) {
    parent_->send_to_controller({southbound::RoleReply{role->xid, role->sw, true}});
    return;
  }
  if (const auto* barrier = std::get_if<southbound::BarrierRequest>(&msg)) {
    parent_->send_to_controller({southbound::BarrierReply{barrier->xid}});
    return;
  }
  if (const auto* echo = std::get_if<southbound::EchoRequest>(&msg)) {
    parent_->send_to_controller({southbound::EchoReply{echo->xid}});
    return;
  }
  SOFTMOW_LOG(LogLevel::kDebug, "reca")
      << s_.self.str() << " ignoring " << southbound::message_name(msg) << " from parent";
}

void RecAAgent::handle_discovery_down(const PacketOut& out) {
  // §4.1.2 origination path: map the parent's (G-switch, port) to a local
  // endpoint, push our own (controller, switch, port), and send it further
  // down (or onto the wire, if the mapped switch is physical).
  auto local = s_.abstraction->to_local(out.port);
  if (!local) {
    ++stats_.discovery_unmapped;
    return;
  }
  DiscoveryPayload payload = std::get<DiscoveryPayload>(out.body);
  payload.stack.push_back(southbound::DiscoveryStackEntry{s_.self, local->sw, local->port});
  ++stats_.discovery_down;
  // Zero-length relay span: ties this level's descent into the originating
  // round's tree (payload.ctx crossed the channel with the frame).
  obs::default_tracer().span_under(payload.ctx, sim::TimePoint::zero(), sim::TimePoint::zero(),
                                   "discovery.descend", s_.level, s_.self.str(),
                                   obs::SpanKind::kProcess);

  PacketOut down;
  down.sw = local->sw;
  down.port = local->port;
  down.body = std::move(payload);
  // Fails only when the mapped switch has left this controller: the frame is
  // lost as on a downed link, and the next discovery round probes again.
  (void)s_.bus->send(local->sw, down);
}

void RecAAgent::forward_discovery_up(Endpoint local_at, DiscoveryPayload payload) {
  if (parent_ == nullptr) {
    ++stats_.discovery_unmapped;
    return;
  }
  auto exposed = s_.abstraction->to_exposed(local_at);
  if (!exposed) {
    // Arrived at a port we never exposed: cannot be a link the parent
    // (or any ancestor) could own.
    ++stats_.discovery_unmapped;
    return;
  }
  ++stats_.discovery_up;
  obs::default_tracer().span_under(payload.ctx, sim::TimePoint::zero(), sim::TimePoint::zero(),
                                   "discovery.relay", s_.level, s_.self.str(),
                                   obs::SpanKind::kProcess);
  PacketIn in;
  in.sw = s_.abstraction->gswitch_id();
  in.in_port = *exposed;
  in.body = std::move(payload);
  parent_->send_to_controller({std::move(in)});
}

void RecAAgent::translate_flow_mod(const FlowMod& mod) {
  using dataplane::Action;
  using dataplane::ActionType;

  if (mod.op == FlowMod::Op::kRemoveByCookie) {
    auto it = parent_cookie_to_paths_.find(mod.cookie);
    if (it != parent_cookie_to_paths_.end()) {
      // deactivate() fails only for an id no longer in the book: a repair
      // that found no alternative route already erased that path.
      for (PathId path : it->second) (void)s_.paths->deactivate(path);
      parent_cookie_to_paths_.erase(it);
      ++stats_.flowmods_removed;
      maybe_announce_vfabric();  // released bandwidth may cross the threshold
    }
    return;
  }
  if (mod.op == FlowMod::Op::kRemoveByMatch) {
    SOFTMOW_LOG(LogLevel::kWarn, "reca")
        << s_.self.str() << " remove-by-match not supported on G-switches; "
        << "parents remove by cookie";
    return;
  }

  // --- kAdd under a cookie already translated ------------------------------
  // A switch keeps one rule per cookie, so a re-sent add (the parent's
  // resync after this instance replaced a failed one, a retransmission)
  // must not translate the rule twice. While every path of the earlier
  // translation is still in the book the rule is in place; otherwise drop
  // what is left of it and translate afresh.
  if (auto it = parent_cookie_to_paths_.find(mod.rule.cookie);
      it != parent_cookie_to_paths_.end()) {
    if (std::all_of(it->second.begin(), it->second.end(),
                    [&](PathId p) { return s_.paths->path(p) != nullptr; }))
      return;
    // deactivate() fails only for the paths a repair already erased.
    for (PathId path : it->second) (void)s_.paths->deactivate(path);
    parent_cookie_to_paths_.erase(it);
  }

  // --- kAdd: implement the virtual rule as local internal path(s) -----------
  // The ambient context here is the parent operation that sent the FlowMod
  // (restored by the channel); nested local path setups attach beneath it.
  obs::Tracer& tracer = obs::default_tracer();
  obs::TraceContext translate = tracer.open_span(sim::TimePoint::zero(), "flowmod.translate",
                                                 s_.level, s_.self.str());
  obs::Tracer::ScopedContext scoped(tracer, translate);
  const dataplane::FlowRule& rule = mod.rule;
  if (!rule.match.in_port) {
    ++stats_.flowmod_failures;
    SOFTMOW_LOG(LogLevel::kWarn, "reca")
        << s_.self.str() << " virtual rule without in_port cannot be translated";
    tracer.close_span(translate, sim::TimePoint::zero(), "no in_port");
    return;
  }
  std::vector<Endpoint> entry_points = s_.abstraction->constituents(*rule.match.in_port);
  std::optional<PortId> out_port;
  int pops = 0;
  std::vector<Label> pushes;
  std::uint32_t version = 0;
  for (const Action& a : rule.actions) {
    switch (a.type) {
      case ActionType::kOutput: out_port = a.port; break;
      case ActionType::kPopLabel: ++pops; break;
      case ActionType::kPushLabel: pushes.push_back(a.label); break;
      case ActionType::kSwapLabel:
        // swap == pop + push of the outer label.
        ++pops;
        pushes.push_back(a.label);
        break;
      case ActionType::kSetVersion: version = a.version; break;
      case ActionType::kToController:
      case ActionType::kDrop:
        break;
    }
  }
  if (entry_points.empty() || !out_port) {
    ++stats_.flowmod_failures;
    tracer.close_span(translate, sim::TimePoint::zero(), "unmappable rule");
    return;
  }
  auto local_out = s_.abstraction->to_local(*out_port);
  if (!local_out) {
    ++stats_.flowmod_failures;
    tracer.close_span(translate, sim::TimePoint::zero(), "unmapped out port");
    return;
  }

  // Classification fields seen by our first switch: the parent's
  // fine-grained fields plus — when traffic arrives already labeled — the
  // parent's label on top.
  dataplane::Match classifier = rule.match;
  classifier.in_port.reset();  // PathImplementer pins in_port per hop

  std::optional<Label> incoming;
  if (rule.match.label) {
    // The parent's level is ours + 1; recorded for label-depth audits only.
    incoming = Label{*rule.match.label, static_cast<std::uint8_t>(s_.level + 1)};
  }

  nos::PathSetupOptions options;
  options.version = version;
  options.priority = rule.priority;
  if (mode_ == LabelMode::kSwapping) {
    // §4.3: pop the ancestor label at ingress; at the egress push whatever
    // label the parent's rule leaves on the wire — an explicit push/swap
    // target, the untouched incoming label, or nothing after a bare pop.
    options.outer_pop = incoming.has_value();
    if (!pushes.empty()) options.outer_push = pushes.back();
    else if (pops == 0 && incoming) options.outer_push = incoming;
  } else {
    // Stacking strawman: never swap; replicate the parent's pushes beneath
    // our local label and its pops beneath our exit pop. Depth grows with
    // every level (§4.3 "high-overhead label stacking").
    options.outer_pop = false;
    options.push_under = pushes;
    options.extra_pops_at_exit = pops;
  }

  options.reserve_kbps = mod.reserve_kbps;

  // One internal path per entry point (§4.3: the classification rule is
  // installed at every constituent access switch).
  std::vector<PathId> installed;
  for (const Endpoint& entry : entry_points) {
    nos::RoutingRequest req;
    req.source = entry;
    req.dst = *local_out;
    req.objective = Metric::kHops;
    req.constraints.min_bandwidth_kbps = mod.reserve_kbps;
    auto route = s_.routing->route(req);
    if (!route.ok()) {
      SOFTMOW_LOG(LogLevel::kDebug, "reca")
          << s_.self.str() << " cannot realize virtual rule from " << entry.sw.str()
          << ": " << route.error().message;
      continue;
    }
    auto path = s_.paths->setup(*route, classifier, options);
    if (path.ok()) installed.push_back(*path);
  }
  if (installed.empty()) {
    ++stats_.flowmod_failures;
    tracer.close_span(translate, sim::TimePoint::zero(), "no feasible internal path");
    return;
  }
  std::size_t paths = installed.size();
  parent_cookie_to_paths_[rule.cookie] = std::move(installed);
  ++stats_.flowmods_translated;
  tracer.close_span(translate, sim::TimePoint::zero(),
                    std::to_string(paths) + " internal path(s)");
  maybe_announce_vfabric();  // reservations may have crossed the threshold
}

std::uint64_t RecAAgent::delegate(AppMessage msg,
                                  std::function<void(const AppMessage&)> on_response) {
  msg.request_id = next_request_++;
  msg.is_response = false;
  if (!msg.ctx.valid()) msg.ctx = obs::default_tracer().current();
  if (on_response) pending_[msg.request_id] = std::move(on_response);
  ++stats_.app_up;
  if (parent_ != nullptr) parent_->send_to_controller({msg});
  return msg.request_id;
}

void RecAAgent::send_up(AppMessage msg) {
  ++stats_.app_up;
  if (!msg.ctx.valid()) msg.ctx = obs::default_tracer().current();
  if (parent_ != nullptr) parent_->send_to_controller({std::move(msg)});
}

void RecAAgent::respond_up(std::uint64_t request_id, AppMessage response) {
  response.request_id = request_id;
  response.is_response = true;
  if (!response.ctx.valid()) response.ctx = obs::default_tracer().current();
  if (parent_ != nullptr) parent_->send_to_controller({std::move(response)});
}

void RecAAgent::register_app_handler(
    std::string type, std::function<void(const southbound::AppMessage&)> handler) {
  app_handlers_[std::move(type)] = std::move(handler);
}

}  // namespace softmow::reca

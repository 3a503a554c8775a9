#include "apps/mobility.h"

#include <algorithm>

#include "core/log.h"
#include "mgmt/management.h"
#include "reca/abstraction.h"

namespace softmow::apps {

using mgmt::gbs_id_for_group;
using southbound::AppMessage;

namespace {

/// Opens a span under the ambient context (so a delegated serve attaches to
/// the requesting operation's tree, while a UE-initiated request roots a new
/// one) and closes it on scope exit with whatever detail was recorded last.
/// The live control plane runs at sim-time zero: these spans carry causal
/// structure; the timing benches model durations on the same shape.
class SpanGuard {
 public:
  SpanGuard(std::string name, int level, std::string scope)
      : tracer_(obs::default_tracer()),
        ctx_(tracer_.open_span(sim::TimePoint::zero(), std::move(name), level,
                               std::move(scope))),
        scoped_(tracer_, ctx_) {}
  ~SpanGuard() { tracer_.close_span(ctx_, sim::TimePoint::zero(), std::move(detail_)); }
  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;

  void detail(std::string d) { detail_ = std::move(d); }

 private:
  obs::Tracer& tracer_;
  obs::TraceContext ctx_;
  obs::Tracer::ScopedContext scoped_;
  std::string detail_;
};

AppMessage app_message(std::string type, std::any body) {
  AppMessage msg;
  msg.type = std::move(type);
  msg.body = std::move(body);
  return msg;
}

/// Reply callback storing a `Body` reply into `out`. Channels deliver
/// synchronously in-process, so `out` holds the reply when the send returns;
/// no reply (or a foreign body) leaves it default-constructed, i.e. failed.
template <typename Body>
std::function<void(const AppMessage&)> reply_into(Body& out) {
  return [&out](const AppMessage& reply) {
    if (const auto* body = std::any_cast<Body>(&reply.body)) out = *body;
  };
}

}  // namespace

MobilityApp::MobilityApp(reca::Controller* controller, const dataplane::PhysicalNetwork* net)
    : controller_(controller), net_(net) {
  register_handlers();
}

void MobilityApp::rebind(reca::Controller* controller) {
  controller_ = controller;
  register_handlers();
  if (reactive_) enable_reactive_bearers();
}

void MobilityApp::register_handlers() {
  // --- requests arriving from children (delegations travelling up) ----------
  controller_->register_child_app_handler(
      kBearerRequestMsg, [this](SwitchId child, const AppMessage& msg) {
        const auto* delegation = std::any_cast<BearerDelegation>(&msg.body);
        if (delegation == nullptr) return;
        serve_or_climb(delegation->request, delegation->source_gbs,
                       relay_to({child, msg.request_id}));
      });

  controller_->register_child_app_handler(
      kHandoverRequestMsg, [this](SwitchId child, const AppMessage& msg) {
        const auto* delegation = std::any_cast<HandoverDelegation>(&msg.body);
        if (delegation == nullptr) return;
        Requester from{child, msg.request_id};
        ++stats_.handover_requests;
        auto served = serve_handover(*delegation);
        if (served.ok()) {
          answer(from, app_message(kHandoverRequestMsg, std::move(*served)));
        } else if (served.code() == ErrorCode::kNotFound && controller_->reca().has_parent()) {
          // Not the common ancestor: forward up (§5.2).
          ++stats_.handovers_delegated;
          forward(from, app_message(kHandoverRequestMsg, *delegation));
        } else {
          ++stats_.handover_failures;
          answer(from, app_message(kHandoverRequestMsg,
                                   HandoverOutcome{false, controller_->level(),
                                                   served.error().message}));
        }
      });

  controller_->register_child_app_handler(
      kBearerDeactivateMsg, [this](SwitchId child, const AppMessage& msg) {
        const auto* req = std::any_cast<BearerDeactivate>(&msg.body);
        if (req == nullptr) return;
        Requester from{child, msg.request_id};
        if (deactivate_ancestor_key(req->ancestor_key)) {
          answer(from, app_message(kBearerDeactivateMsg,
                                   BearerOutcome{true, controller_->level(), 0, {}}));
        } else if (controller_->reca().has_parent()) {
          deactivate_upward(req->ue, req->ancestor_key, relay_to(from));
        } else {
          answer(from, app_message(kBearerDeactivateMsg,
                                   BearerOutcome{false, controller_->level(), 0,
                                                 "unknown path key"}));
        }
      });

  controller_->register_child_app_handler(
      kFetchHandoverGraphMsg, [this](SwitchId child, const AppMessage& msg) {
        answer({child, msg.request_id},
               app_message(kFetchHandoverGraphMsg,
                           HandoverGraphBody{map_to_exposed(collect_handover_graph())}));
      });

  // --- requests arriving from the parent (travelling down) -------------------
  controller_->reca().register_app_handler(
      kHoAllocateMsg, [this](const AppMessage& msg) {
        const auto* alloc = std::any_cast<HoAllocate>(&msg.body);
        if (alloc == nullptr) return;
        Requester from{SwitchId{}, msg.request_id};
        if (!controller_->is_leaf()) {
          forward(from, app_message(kHoAllocateMsg, *alloc), alloc->target_gbs);
          return;
        }
        // Leaf: take over the UE with its (ancestor-implemented) bearers.
        UeRecord rec;
        rec.ue = alloc->ue;
        rec.bs = alloc->target_bs;
        rec.group = mgmt::group_for_gbs_id(alloc->target_gbs);
        for (std::size_t i = 0; i < alloc->bearers.size(); ++i) {
          std::uint64_t key = i < alloc->ancestor_keys.size() ? alloc->ancestor_keys[i] : 0;
          BearerRequest request = alloc->bearers[i];
          request.bs = alloc->target_bs;
          add_bearer(rec, {.request = std::move(request),
                           .active = key != 0,
                           .handled_locally = false,
                           .handled_level = alloc->by_level,
                           .ancestor_key = key});
        }
        ues_[alloc->ue] = std::move(rec);
        answer(from,
               app_message(kHoAllocateMsg, HandoverOutcome{true, controller_->level(), {}}));
      });

  controller_->reca().register_app_handler(
      kHoReleaseMsg, [this](const AppMessage& msg) {
        const auto* release = std::any_cast<HoRelease>(&msg.body);
        if (release == nullptr) return;
        Requester from{SwitchId{}, msg.request_id};
        if (!controller_->is_leaf()) {
          forward(from, app_message(kHoReleaseMsg, *release), release->source_gbs);
          return;
        }
        // The serving ancestor tears down the ancestor paths itself (§5.2).
        auto it = ues_.find(release->ue);
        if (it != ues_.end()) {
          for (auto& [bid, bearer] : it->second.bearers) {
            if (bearer.handled_locally && bearer.active) drop_path(bearer.local_path);
          }
          ues_.erase(it);
        }
        answer(from,
               app_message(kHoReleaseMsg, HandoverOutcome{true, controller_->level(), {}}));
      });

  controller_->reca().register_app_handler(
      kFetchHandoverGraphMsg, [this](const AppMessage& msg) {
        answer({SwitchId{}, msg.request_id},
               app_message(kFetchHandoverGraphMsg,
                           HandoverGraphBody{map_to_exposed(collect_handover_graph())}));
      });
}

void MobilityApp::enable_reactive_bearers() {
  reactive_ = true;
  controller_->set_packet_in_handler([this](SwitchId, PortId, const Packet& pkt) {
    auto it = ues_.find(pkt.ue);
    if (it == ues_.end() || !pkt.dst_prefix.valid()) return;
    // Deduplicate: an active bearer for this (UE, prefix) already covers
    // the flow; the miss is transient (rules racing the packet).
    for (const auto& [bid, bearer] : it->second.bearers) {
      if (bearer.active && bearer.request.dst_prefix == pkt.dst_prefix) return;
    }
    BearerRequest request;
    request.ue = pkt.ue;
    request.bs = it->second.bs;
    request.dst_prefix = pkt.dst_prefix;
    if (request_bearer(request).ok()) ++reactive_bearers_;
  });
}

std::optional<Endpoint> MobilityApp::gbs_attach(GBsId gbs) const {
  const southbound::GBsAnnounce* rec = controller_->nib().gbs(gbs);
  if (rec == nullptr) return std::nullopt;
  return Endpoint{rec->attached_switch, rec->attached_port};
}

// --- the recursive bearer core: the same steps at every level ----------------

void MobilityApp::answer(Requester from, AppMessage reply) {
  if (from.child.valid()) {
    controller_->send_app_response(from.child, from.request_id, std::move(reply));
  } else {
    controller_->reca().respond_up(from.request_id, std::move(reply));
  }
}

MobilityApp::OnReply MobilityApp::relay_to(Requester from) {
  return [this, from](const AppMessage& reply) { answer(from, reply); };
}

void MobilityApp::forward(Requester from, AppMessage msg, std::optional<GBsId> toward) {
  if (!toward) {
    controller_->reca().delegate(std::move(msg), relay_to(from));
  } else if (auto at = gbs_attach(*toward)) {
    // At a non-leaf, the G-BS attaches to a child G-switch.
    controller_->send_app_request(at->sw, std::move(msg), relay_to(from));
  } else {
    // Only handover steps travel down, and they answer with a HandoverOutcome.
    answer(from, app_message(std::move(msg.type), HandoverOutcome{false, controller_->level(),
                                                                  "G-BS not in this region"}));
  }
}

void MobilityApp::climb(const BearerRequest& request, GBsId source_gbs, OnReply on_reply) {
  // The source G-BS is named in the *parent's* ID space: border groups keep
  // their identity, internal ones collapse onto the aggregate G-BS. A dirty
  // abstraction is re-announced first so the parent decides on fresh state
  // (e.g. current G-middlebox utilization).
  if (controller_->abstraction().dirty()) controller_->refresh_abstraction();
  GBsId exposed = controller_->abstraction().exposed_gbs_id(source_gbs);
  controller_->reca().delegate(
      app_message(kBearerRequestMsg, BearerDelegation{request, exposed}), std::move(on_reply));
}

void MobilityApp::serve_or_climb(const BearerRequest& request, GBsId source_gbs,
                                 OnReply on_reply) {
  auto served = serve_bearer(request, source_gbs);
  if (!served.ok() && controller_->reca().has_parent()) {
    climb(request, source_gbs, std::move(on_reply));  // satisfiable only higher up
    return;
  }
  on_reply(app_message(kBearerRequestMsg,
                       served.ok() ? std::move(*served)
                                   : BearerOutcome{false, controller_->level(), 0,
                                                   served.error().message}));
}

void MobilityApp::deactivate_upward(UeId ue, std::uint64_t key, OnReply on_reply) {
  controller_->reca().delegate(app_message(kBearerDeactivateMsg, BearerDeactivate{ue, key}),
                               std::move(on_reply));
}

Result<PathId> MobilityApp::install_bearer_path(Endpoint source, const BearerRequest& request) {
  nos::RoutingRequest routing;
  routing.source = source;
  routing.dst_prefix = request.dst_prefix;
  routing.constraints = request.qos;
  routing.policy = request.policy;
  routing.objective = request.objective;
  auto route = controller_->compute_route(routing);
  if (!route.ok()) return route.error();

  dataplane::Match classifier;
  classifier.ue = request.ue;
  classifier.dst_prefix = request.dst_prefix;
  nos::PathSetupOptions options;
  // Guaranteed-bit-rate bearers reserve their floor along the path (§3.2).
  options.reserve_kbps = request.qos.min_bandwidth_kbps;
  // Sliced bearer under tag encapsulation: classify onto the shared
  // (slice, clause, ingress, egress) policy tag so same-aggregate bearers
  // share transit rules (SoftCell compression) instead of a per-path label.
  // A delegated bearer carries its originating slice, so an ancestor
  // aggregates same-tag bearers onto shared G-switch rules — children then
  // translate one aggregate, not N paths.
  if (controller_->tag_allocator() != nullptr && request.slice.valid() &&
      !route->hops.empty()) {
    Endpoint egress{route->hops.back().sw, route->hops.back().out};
    options.shared_tag =
        Label{controller_->tag_allocator()->tag_for(request.slice, request.policy_clause,
                                                    source, egress),
              static_cast<std::uint8_t>(controller_->level())};
  }
  return controller_->path_setup(*route, classifier, options);
}

void MobilityApp::release_bearer(UeId ue, BearerRecord& bearer) {
  if (!bearer.active) return;
  bearer.active = false;
  if (bearer.handled_locally) {
    drop_path(bearer.local_path);
  } else if (bearer.ancestor_key != 0) {
    // §5.1: "If the UE bearer has been handled by the parent controller,
    // the mobility application continues to request bearer deactivation
    // from its parent via RecA."
    deactivate_upward(ue, bearer.ancestor_key);
    bearer.ancestor_key = 0;
  }
}

void MobilityApp::drop_path(PathId id) {
  // Deactivation fails only for an id missing from this controller's path
  // table, and then there is nothing installed left to tear down.
  (void)controller_->deactivate_path(id);
}

BearerId MobilityApp::add_bearer(UeRecord& rec, BearerRecord bearer) {
  if (!bearer.id.valid()) bearer.id = BearerId{next_bearer_++};
  BearerId id = bearer.id;
  rec.bearers.emplace(id, std::move(bearer));
  return id;
}

// --- UE lifecycle and bearers --------------------------------------------------

Result<void> MobilityApp::ue_attach(UeId ue, BsId bs) {
  const dataplane::BaseStation* station = net_->base_station(bs);
  if (station == nullptr) return {ErrorCode::kNotFound, "no such base station"};
  ++stats_.ue_arrivals;
  UeRecord rec;
  rec.ue = ue;
  rec.bs = bs;
  rec.group = station->group;
  ues_[ue] = std::move(rec);
  return Ok();
}

Result<void> MobilityApp::ue_detach(UeId ue) {
  auto it = ues_.find(ue);
  if (it == ues_.end()) return {ErrorCode::kNotFound, "UE not attached"};
  for (auto& [bid, bearer] : it->second.bearers) release_bearer(ue, bearer);
  ues_.erase(it);
  return Ok();
}

Result<void> MobilityApp::ue_idle(UeId ue) {
  auto it = ues_.find(ue);
  if (it == ues_.end()) return {ErrorCode::kNotFound, "UE not attached"};
  it->second.idle = true;
  for (auto& [bid, bearer] : it->second.bearers) release_bearer(ue, bearer);
  return Ok();
}

Result<void> MobilityApp::ue_active(UeId ue) {
  auto it = ues_.find(ue);
  if (it == ues_.end()) return {ErrorCode::kNotFound, "UE not attached"};
  it->second.idle = false;
  restore_bearers(it->second, LogLevel::kDebug, "on UE activation");
  return Ok();
}

void MobilityApp::restore_bearers(UeRecord& rec, LogLevel level, const char* when) {
  if (rec.idle) return;
  // The superseded records go first: every re-request adds its replacement,
  // and a request colliding with a bearer set up meanwhile is refused.
  // Each comes back under its old id, which the slice manager keys it by.
  std::vector<std::pair<BearerId, BearerRequest>> to_restore;
  for (auto& [bid, bearer] : rec.bearers) {
    if (bearer.active) continue;
    bearer.request.bs = rec.bs;
    to_restore.emplace_back(bid, bearer.request);
  }
  rec.bearers.erase_if([](const auto& kv) { return !kv.second.active; });
  for (const auto& [bid, request] : to_restore) {
    auto restored = request_bearer(request, bid);
    if (!restored.ok()) {
      SOFTMOW_LOG(level, "mobility") << controller_->name() << " bearer re-setup " << when
                                     << " failed: " << restored.error().message;
    }
  }
}

Result<BearerId> MobilityApp::request_bearer(const BearerRequest& request) {
  return request_bearer(request, BearerId{});
}

Result<BearerId> MobilityApp::request_bearer(const BearerRequest& request, BearerId id) {
  ++stats_.bearer_arrivals;
  auto it = ues_.find(request.ue);
  if (it == ues_.end()) return Error{ErrorCode::kNotFound, "UE not attached"};
  UeRecord& rec = it->second;
  // A bearer's classifier matches (UE, destination prefix) at one priority,
  // so a second active one would collide with the first at the access switch.
  for (const auto& [bid, bearer] : rec.bearers) {
    if (bearer.active && bearer.request.dst_prefix == request.dst_prefix)
      return Error{ErrorCode::kConflict, "UE already holds an active bearer to this prefix"};
  }

  SpanGuard span("bearer.setup", controller_->level(), controller_->name());
  span.detail("failed");

  const dataplane::BsGroup* group = net_->bs_group(rec.group);
  Result<PathId> local =
      group != nullptr ? install_bearer_path(Endpoint{group->access_switch, PortId{1}}, request)
                       : Error{ErrorCode::kNotFound, "UE group unknown"};
  if (local.ok()) {
    ++stats_.bearers_local;
    span.detail("local");
    return add_bearer(rec, {.id = id,
                            .request = request,
                            .local_path = *local,
                            .handled_level = controller_->level()});
  }
  if (local.code() != ErrorCode::kNotFound && local.code() != ErrorCode::kUnsatisfiable)
    return local.error();

  if (!controller_->reca().has_parent()) {
    ++stats_.bearers_failed;
    return local.error();
  }

  // §5.1: delegate the request to RecA, which forwards it to the parent.
  ++stats_.bearers_delegated;
  BearerOutcome outcome;
  climb(request, gbs_id_for_group(rec.group), reply_into(outcome));
  if (!outcome.ok) {
    ++stats_.bearers_failed;
    return Error{ErrorCode::kUnsatisfiable,
                 outcome.error.empty() ? "no ancestor could satisfy the bearer"
                                       : outcome.error};
  }
  span.detail("delegated L" + std::to_string(outcome.handled_level));
  return add_bearer(rec, {.id = id,
                          .request = request,
                          .handled_locally = false,
                          .handled_level = outcome.handled_level,
                          .ancestor_key = outcome.ancestor_key});
}

Result<void> MobilityApp::deactivate_bearer(UeId ue, BearerId bearer_id) {
  auto it = ues_.find(ue);
  if (it == ues_.end()) return {ErrorCode::kNotFound, "UE not attached"};
  auto bit = it->second.bearers.find(bearer_id);
  if (bit == it->second.bearers.end()) return {ErrorCode::kNotFound, "no such bearer"};
  release_bearer(ue, bit->second);
  it->second.bearers.erase(bit);
  return Ok();
}

Result<BearerOutcome> MobilityApp::serve_bearer(const BearerRequest& request,
                                                GBsId source_gbs) {
  auto source = gbs_attach(source_gbs);
  if (!source) return Error{ErrorCode::kNotFound, "source G-BS not in this region"};

  SpanGuard span("bearer.serve", controller_->level(), controller_->name());
  span.detail("failed");

  auto path = install_bearer_path(*source, request);
  if (!path.ok()) return path.error();

  std::uint64_t key = (controller_->id().value << 32) | next_ancestor_key_++;
  ancestor_paths_[key] = *path;
  span.detail("served");
  return BearerOutcome{true, controller_->level(), key, {}};
}

bool MobilityApp::deactivate_ancestor_key(std::uint64_t key) {
  auto it = ancestor_paths_.find(key);
  if (it == ancestor_paths_.end()) return false;
  drop_path(it->second);
  ancestor_paths_.erase(it);
  return true;
}

Result<void> MobilityApp::handover(UeId ue, BsId target_bs) {
  ++stats_.handover_requests;
  auto it = ues_.find(ue);
  if (it == ues_.end()) return {ErrorCode::kNotFound, "UE not attached"};
  UeRecord& rec = it->second;
  const dataplane::BaseStation* target = net_->base_station(target_bs);
  if (target == nullptr) return {ErrorCode::kNotFound, "no such target base station"};

  if (target->group == rec.group) {
    // §2.1 fast path: the groups' intra-connection (ring/mesh/spoke-hub)
    // carries same-group handovers; the flow keeps entering through the
    // same access switch, so no path changes at all.
    ++stats_.intra_group_handovers;
    rec.bs = target_bs;
    return Ok();
  }

  SpanGuard span("handover", controller_->level(), controller_->name());
  span.detail("failed");

  GBsId source_gbs = gbs_id_for_group(rec.group);
  GBsId target_gbs = gbs_id_for_group(target->group);
  handover_log_.add(source_gbs, target_gbs, 1.0);

  if (controller_->nib().gbs(target_gbs) != nullptr) {
    // --- intra-region (§5.2: "this type of handover is easy") ----------------
    ++stats_.intra_region_handovers;
    rec.bs = target_bs;
    rec.group = target->group;
    // Tear down the old paths, then re-create them from the new group. An
    // ancestor's classification rule points at the old access switch, so
    // delegated bearers are re-delegated too. An idle UE keeps its inactive
    // bearers until ue_active restores them from wherever it is then.
    for (auto& [bid, bearer] : rec.bearers) release_bearer(ue, bearer);
    restore_bearers(rec, LogLevel::kDebug, "after intra handover");
    span.detail("intra-region");
    return Ok();
  }

  // --- inter-region (§5.2): delegate to the common ancestor ------------------
  if (!controller_->reca().has_parent()) {
    ++stats_.handover_failures;
    return {ErrorCode::kNotFound, "target region unknown and no parent"};
  }
  ++stats_.handovers_delegated;
  HandoverDelegation delegation;
  delegation.ue = ue;
  delegation.source_gbs = source_gbs;
  delegation.source_bs = rec.bs;
  delegation.target_gbs = target_gbs;
  delegation.target_bs = target_bs;
  for (const auto& [bid, bearer] : rec.bearers) {
    if (!bearer.active) continue;
    delegation.active_bearers.push_back(bearer.request);
    if (!bearer.handled_locally && bearer.ancestor_key != 0)
      delegation.old_ancestor_keys.push_back(bearer.ancestor_key);
  }

  HandoverOutcome outcome;
  controller_->reca().delegate(app_message(kHandoverRequestMsg, std::move(delegation)),
                               reply_into(outcome));
  if (!outcome.ok) {
    ++stats_.handover_failures;
    return Error{ErrorCode::kUnsatisfiable,
                 outcome.error.empty() ? "handover rejected" : outcome.error};
  }
  // The ancestor released us via ho-release; if the UE record survived
  // (release raced), drop it now: the target leaf owns the UE.
  ues_.erase(ue);
  span.detail("inter-region");
  return Ok();
}

Result<HandoverOutcome> MobilityApp::serve_handover(const HandoverDelegation& delegation) {
  auto source = gbs_attach(delegation.source_gbs);
  auto target = gbs_attach(delegation.target_gbs);
  if (!source || !target)
    return Error{ErrorCode::kNotFound, "not the common ancestor of source and target"};

  SpanGuard span("handover.serve", controller_->level(), controller_->name());
  span.detail("failed");

  ++stats_.inter_region_handled;
  handover_log_.add(delegation.source_gbs, delegation.target_gbs, 1.0);

  // (1) New bearer paths from the target G-BS (§5.2 "establishes some paths
  //     E2 and G-BS2 for new flows").
  HoAllocate alloc;
  alloc.ue = delegation.ue;
  alloc.target_gbs = delegation.target_gbs;
  alloc.target_bs = delegation.target_bs;
  alloc.by_level = controller_->level();
  for (const BearerRequest& request : delegation.active_bearers) {
    BearerOutcome outcome;
    serve_or_climb(request, delegation.target_gbs, reply_into(outcome));
    alloc.bearers.push_back(request);
    alloc.ancestor_keys.push_back(outcome.ok ? outcome.ancestor_key : 0);
  }

  // (2) Transfer path for in-flight packets between the two G-BSes.
  nos::RoutingRequest transfer;
  transfer.source = *source;
  transfer.dst = *target;
  auto transfer_route = controller_->compute_route(transfer);
  std::optional<PathId> transfer_path;
  if (transfer_route.ok()) {
    dataplane::Match classifier;
    classifier.ue = delegation.ue;
    auto p = controller_->path_setup(*transfer_route, classifier);
    if (p.ok()) transfer_path = *p;
  }

  // (3) Resource allocation at the target (§5.2 "requests G-BS2 to allocate
  //     the resources at the BS2").
  HandoverOutcome allocated;
  controller_->send_app_request(target->sw, app_message(kHoAllocateMsg, std::move(alloc)),
                                reply_into(allocated));

  // (4) Tear down old paths (ours by key; others forwarded up).
  for (std::uint64_t key : delegation.old_ancestor_keys) {
    if (!deactivate_ancestor_key(key)) deactivate_upward(delegation.ue, key);
  }

  // (5) Release at the source (§5.2 "asks G-BS1 to release the resources").
  controller_->send_app_request(
      source->sw, app_message(kHoReleaseMsg, HoRelease{delegation.ue, delegation.source_gbs}),
      nullptr);

  // (6) The in-flight transfer path is short-lived: removed once the
  //     handover completes (§5.2 "removes old paths ... between G-BS1 and
  //     G-BS2").
  if (transfer_path) drop_path(*transfer_path);

  if (!allocated.ok)
    return Error{ErrorCode::kUnavailable, "target G-BS failed to allocate resources"};
  span.detail("served");
  return HandoverOutcome{true, controller_->level(), {}};
}

const UeRecord* MobilityApp::ue(UeId id) const {
  auto it = ues_.find(id);
  return it == ues_.end() ? nullptr : &it->second;
}

WeightedAdjacency<GBsId> MobilityApp::exposed_handover_graph() const {
  return map_to_exposed(handover_log_);
}

WeightedAdjacency<GBsId> MobilityApp::collect_handover_graph() {
  WeightedAdjacency<GBsId> merged = handover_log_;
  for (SwitchId device : controller_->devices()) {
    if (!reca::is_gswitch_id(device)) continue;
    AppMessage fetch;
    fetch.type = kFetchHandoverGraphMsg;
    controller_->send_app_request(device, std::move(fetch), [&merged](const AppMessage& resp) {
      if (const auto* body = std::any_cast<HandoverGraphBody>(&resp.body))
        merged.merge(body->graph);
    });
  }
  return merged;
}

WeightedAdjacency<GBsId> MobilityApp::map_to_exposed(
    const WeightedAdjacency<GBsId>& graph) const {
  const auto& border = controller_->abstraction().border_gbs();
  GBsId internal = reca::internal_gbs_id_for(controller_->id());
  auto map_node = [&](GBsId n) -> GBsId {
    if (border.contains(n)) return n;                       // exposed 1:1
    if (controller_->nib().gbs(n) != nullptr) return internal;  // ours, internal
    return n;                                               // foreign: ancestors map it
  };
  WeightedAdjacency<GBsId> out;
  for (const auto& [key, weight] : graph.edges()) {
    GBsId a = map_node(key.first);
    GBsId b = map_node(key.second);
    if (a == b) continue;  // collapsed into the internal aggregate
    out.add(a, b, weight);
  }
  return out;
}

std::vector<UeRecord> MobilityApp::extract_group_state(BsGroupId group) {
  std::vector<UeRecord> out;
  for (auto it = ues_.begin(); it != ues_.end();) {
    if (it->second.group == group) {
      // Local path ids are meaningless in the target leaf's path table, and
      // this leaf is about to lose control of the switches carrying them:
      // tear them down now and hand the bearer over inactive, to be
      // restored by the target. Ancestor-implemented paths survive the leaf
      // change untouched.
      for (auto& [bid, bearer] : it->second.bearers)
        if (bearer.handled_locally) release_bearer(it->second.ue, bearer);
      out.push_back(std::move(it->second));
      it = ues_.erase(it);
    } else {
      ++it;
    }
  }
  return out;
}

void MobilityApp::absorb_group_state(std::vector<UeRecord> records) {
  // The records keep the source leaf's bearer ids; fresh ones drawn here
  // must not collide with them.
  for (UeRecord& rec : records) {
    for (const auto& [bid, bearer] : rec.bearers)
      next_bearer_ = std::max(next_bearer_, bid.value + 1);
    ues_[rec.ue] = std::move(rec);
  }
}

void MobilityApp::rehome_transferred_bearers(BsGroupId group) {
  for (auto& [ue_id, rec] : ues_)
    if (rec.group == group) restore_bearers(rec, LogLevel::kWarn, "after reconfiguration");
}

}  // namespace softmow::apps

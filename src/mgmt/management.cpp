#include "mgmt/management.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "analysis/shard_guard.h"
#include "core/log.h"
#include "obs/trace.h"
#include "southbound/switch_agent.h"

namespace softmow::mgmt {

using dataplane::BsGroup;
using reca::Controller;

ManagementPlane::ManagementPlane(dataplane::PhysicalNetwork* net)
    : net_(net), hub_(std::make_unique<southbound::Hub>(net)) {}

southbound::GBsAnnounce ManagementPlane::make_group_announce(BsGroupId g) const {
  const BsGroup* group = net_->bs_group(g);
  southbound::GBsAnnounce a;
  a.gbs = gbs_id_for_group(g);
  a.attached_switch = group->access_switch;
  a.attached_port = PortId{1};  // radio port of the access switch
  a.is_border = false;          // refined by recompute_borders()
  a.centroid = group->centroid;
  double radius = 0;
  for (BsId bs : group->members) {
    const dataplane::BaseStation* station = net_->base_station(bs);
    radius = std::max(radius, dataplane::distance(group->centroid, station->location) +
                                  station->radio_radius);
  }
  a.coverage_radius = radius;
  a.constituent_groups = {g};
  return a;
}

void ManagementPlane::configure_leaf_inventory(std::size_t leaf_index) {
  Controller& leaf = *leaves_[leaf_index];
  const RegionSpec& region = spec_.leaves[leaf_index];

  for (BsGroupId g : region.groups) leaf.nib().upsert_gbs(make_group_announce(g));

  // Middlebox instances on this region's switches (§4.1: "configured by the
  // management plane" when they do not speak the discovery protocol).
  std::set<SwitchId> region_switches(region.switches.begin(), region.switches.end());
  for (MiddleboxId id : net_->middleboxes()) {
    const dataplane::Middlebox* mb = net_->middlebox(id);
    if (!region_switches.contains(mb->attach.sw)) continue;
    southbound::GMiddleboxAnnounce m;
    m.gmb = id;
    m.type = mb->type;
    m.total_capacity_kbps = mb->capacity_kbps;
    m.utilization = mb->utilization;
    m.attached_switch = mb->attach.sw;
    m.attached_port = mb->attach.port;
    leaf.nib().upsert_middlebox(m);
  }
}

void ManagementPlane::bootstrap(const HierarchySpec& spec) {
  // Root span over the whole bring-up: every adoption handshake and per-level
  // discovery round below attaches to it, so one trace shows the recursive
  // bootstrap order (leaves -> mids -> root, §4.1).
  obs::Tracer& tracer = obs::default_tracer();
  obs::TraceContext root_span =
      tracer.open_span_under({}, sim::TimePoint::zero(), "bootstrap", 0, "mgmt");
  obs::Tracer::ScopedContext scoped(tracer, root_span);
  spec_ = spec;

  placements_.assign(spec_.leaves.size(), LeafPlacement{});

  // --- leaf controllers ------------------------------------------------------
  for (std::size_t i = 0; i < spec_.leaves.size(); ++i) {
    auto leaf = std::make_unique<Controller>(ControllerId{next_controller_++}, 1,
                                             spec_.leaves[i].name, spec_.label_mode);
    for (SwitchId sw : spec_.leaves[i].switches) leaf->adopt_physical_switch(*hub_, sw);
    for (BsGroupId g : spec_.leaves[i].groups) {
      leaf->adopt_physical_switch(*hub_, net_->bs_group(g)->access_switch);
      group_to_leaf_[g] = i;
    }
    leaves_.push_back(std::move(leaf));
    configure_leaf_inventory(i);
    leaves_.back()->run_link_discovery();
  }

  // --- middle level (optional) -------------------------------------------------
  bool has_mids = !spec_.mid_regions.empty();
  if (has_mids) {
    for (std::size_t m = 0; m < spec_.mid_regions.size(); ++m) {
      for (std::size_t leaf_index : spec_.mid_regions[m]) leaf_to_mid_[leaf_index] = m;
    }
  } else {
    for (std::size_t i = 0; i < leaves_.size(); ++i) leaf_to_mid_[i] = 0;
  }

  // Borders must be known before children announce to parents (§5.2).
  recompute_borders();

  int root_level = has_mids ? 3 : 2;
  if (has_mids) {
    for (std::size_t m = 0; m < spec_.mid_regions.size(); ++m) {
      auto mid = std::make_unique<Controller>(ControllerId{next_controller_++}, 2,
                                              "parent-" + std::to_string(m),
                                              spec_.label_mode);
      for (std::size_t leaf_index : spec_.mid_regions[m]) mid->adopt_child(*leaves_[leaf_index]);
      mid->run_link_discovery();
      mids_.push_back(std::move(mid));
    }
    recompute_borders();  // mids now exist; set their border G-BS sets
  }

  root_ = std::make_unique<Controller>(ControllerId{next_controller_++}, root_level, "root",
                                       spec_.label_mode);
  if (has_mids) {
    for (auto& mid : mids_) {
      mid->refresh_abstraction();
      root_->adopt_child(*mid);
    }
  } else {
    for (auto& leaf : leaves_) root_->adopt_child(*leaf);
  }
  root_->run_link_discovery();
  tracer.close_span(root_span, sim::TimePoint::zero(),
                    std::to_string(leaves_.size()) + " leaves, " +
                        std::to_string(mids_.size()) + " mids");
}

std::vector<Controller*> ManagementPlane::leaves() {
  std::vector<Controller*> out;
  for (auto& l : leaves_) out.push_back(l.get());
  return out;
}

std::vector<Controller*> ManagementPlane::mids() {
  std::vector<Controller*> out;
  for (auto& m : mids_) out.push_back(m.get());
  return out;
}

std::vector<Controller*> ManagementPlane::all_controllers() {
  std::vector<Controller*> out = leaves();
  for (auto& m : mids_) out.push_back(m.get());
  if (root_) out.push_back(root_.get());
  return out;
}

Controller* ManagementPlane::leaf_of_group(BsGroupId g) {
  auto it = group_to_leaf_.find(g);
  return it == group_to_leaf_.end() ? nullptr : leaves_[it->second].get();
}

void ManagementPlane::recompute_borders() {
  // Leaf level: a group is border iff some handover neighbor lives in a
  // different leaf region.
  std::map<std::size_t, std::set<GBsId>> leaf_borders;
  // Mid level: the 1:1-re-exposed leaf-border G-BS is border at the mid iff
  // some neighbor lives in a different *mid* region.
  std::map<std::size_t, std::set<GBsId>> mid_borders;

  for (const auto& [g, leaf_index] : group_to_leaf_) {
    for (const auto& [neighbor, weight] : spec_.group_adjacency.neighbors(g)) {
      auto nit = group_to_leaf_.find(neighbor);
      if (nit == group_to_leaf_.end()) continue;
      if (nit->second != leaf_index) leaf_borders[leaf_index].insert(gbs_id_for_group(g));
      if (!mids_.empty() && leaf_to_mid_.at(nit->second) != leaf_to_mid_.at(leaf_index))
        mid_borders[leaf_to_mid_.at(leaf_index)].insert(gbs_id_for_group(g));
    }
  }

  for (std::size_t i = 0; i < leaves_.size(); ++i)
    leaves_[i]->abstraction().set_border_gbs(leaf_borders[i]);
  for (std::size_t m = 0; m < mids_.size(); ++m)
    mids_[m]->abstraction().set_border_gbs(mid_borders[m]);
  if (root_) root_->abstraction().set_border_gbs({});
}

std::size_t ManagementPlane::natural_shard_count() const {
  if (leaves_.empty()) return 1;
  return leaves_.size() + (mids_.empty() ? 0 : 1) + 1;
}

void ManagementPlane::bind_shards(sim::ShardedSimulator& engine,
                                  sim::Duration parent_link_delay) {
  assert(engine.shard_count() == natural_shard_count() &&
         "bind_shards needs an engine of natural_shard_count() shards");
  parent_link_delay_ = parent_link_delay;
  // Leaf i runs on shard i, the mid level on the next shard, the root on
  // the last.
  const sim::ShardId root_shard = engine.shard_count() - 1;
  const sim::ShardId mid_shard = leaves_.size();

  // Children before parents: a parent's device resolver reads each child's
  // shard(), which bind_shards sets.
  for (std::size_t i = 0; i < leaves_.size(); ++i)
    leaves_[i]->bind_shards(&engine, i, parent_link_delay);
  auto child_resolver = [](Controller* parent) {
    return [parent](SwitchId gswitch) -> sim::ShardId {
      Controller* child = parent->child_by_gswitch(gswitch);
      return child != nullptr ? child->shard() : parent->shard();
    };
  };
  for (auto& mid : mids_)
    mid->bind_shards(&engine, mid_shard, parent_link_delay, child_resolver(mid.get()));
  if (root_)
    root_->bind_shards(&engine, root_shard, parent_link_delay, child_resolver(root_.get()));

  // Physical frame transit (discovery probes crossing inter-switch links)
  // runs on the owning leaf's shard.
  // Each physical flow table is also pinned to the shard of the leaf
  // programming it: a rule write that skipped the southbound mailbox handoff
  // (e.g. a direct cross-region install) becomes an exact-blame checker
  // finding.
  std::unordered_map<SwitchId, sim::ShardId> owners;
  for (std::size_t i = 0; i < leaves_.size(); ++i) {
    for (SwitchId sw : leaves_[i]->devices()) owners[sw] = i;
    handoff_leaf_tables(i, i);
  }
  hub_->bind_shards(&engine, std::move(owners));
}

void ManagementPlane::unbind_shards() {
  for (Controller* c : all_controllers()) c->unbind_shards();
  for (SwitchId sw : net_->all_switches()) {
    if (dataplane::Switch* dev = net_->sw(sw); dev != nullptr)
      dev->table().guard().clear_owner();
  }
  hub_->unbind_shards();
  parent_link_delay_ = sim::Duration{};
}

void ManagementPlane::refresh_topology() {
  obs::Tracer& tracer = obs::default_tracer();
  obs::TraceContext root_span =
      tracer.open_span_under({}, sim::TimePoint::zero(), "topology.refresh", 0, "mgmt");
  obs::Tracer::ScopedContext scoped(tracer, root_span);
  for (auto& leaf : leaves_) leaf->refresh_abstraction();
  for (auto& mid : mids_) {
    mid->run_link_discovery();
    mid->refresh_abstraction();
  }
  if (root_) root_->run_link_discovery();
  tracer.close_span(root_span, sim::TimePoint::zero());
}

void ManagementPlane::handoff_leaf_tables(std::size_t i, sim::ShardId to) {
  // HandoffScope marks the ownership transfer as sanctioned: with
  // -DSOFTMOW_SHARD_CHECK=ON an active checker blames any table re-pin
  // performed outside this scope from a foreign shard's event.
  analysis::HandoffScope handoff(to);
  for (SwitchId sw : leaves_.at(i)->devices()) {
    if (dataplane::Switch* dev = net_->sw(sw); dev != nullptr)
      dev->table().guard().set_owner(to);
  }
}

const LeafPlacement& ManagementPlane::leaf_placement(std::size_t i) const {
  return placements_.at(i);
}

Controller* ManagementPlane::parent_of_leaf(std::size_t i) {
  return mids_.empty() ? root_.get() : mids_.at(leaf_to_mid_.at(i)).get();
}

void ManagementPlane::sever_leaf(std::size_t i) {
  // Handlers bound on the parent's channel capture the outgoing instance, so
  // anything still delivered there would touch retired or freed state.
  // Disconnect makes further deliveries count as
  // southbound_dropped_total{disconnected}.
  Controller* parent = parent_of_leaf(i);
  if (parent == nullptr) return;
  SwitchId gswitch = leaves_.at(i)->abstraction().gswitch_id();
  if (southbound::Channel* stale = parent->device_channel(gswitch)) stale->disconnect();
}

std::unique_ptr<Controller> ManagementPlane::install_leaf(std::size_t i,
                                                          std::unique_ptr<Controller> fresh,
                                                          const DeviceFlip& flip) {
  Controller& outgoing = *leaves_.at(i);
  fresh->set_self_healing(outgoing.self_healing());
  fresh->set_reliable_delivery(outgoing.reliable_delivery());
  fresh->set_tag_allocator(outgoing.tag_allocator());
  fresh->reca().set_vfabric_threshold(outgoing.reca().vfabric_threshold());
  if (flip) flip(outgoing, *fresh);

  // Same ControllerId => same G-switch id: re-adoption overwrites the
  // parent's child maps in place and the hierarchy keeps its shape.
  std::unique_ptr<Controller> retired = std::exchange(leaves_.at(i), std::move(fresh));
  if (Controller* parent = parent_of_leaf(i)) parent->adopt_child(*leaves_[i]);
  // Keep the table pins consistent with the replaced instance until the
  // rebind below, through the one sanctioned handoff path.
  handoff_leaf_tables(i, retired->shard());
  recompute_borders();
  refresh_topology();
  if (sim::ShardedSimulator* bound = engine()) bind_shards(*bound, parent_link_delay_);
  if (leaf_swap_hook_) leaf_swap_hook_(*leaves_[i]);
  return retired;
}

Controller& ManagementPlane::fail_over_leaf(std::size_t i, HotStandby& standby,
                                            sim::TimePoint at,
                                            std::optional<sim::Duration> modeled_duration) {
  sever_leaf(i);
  install_leaf(i, standby.promote(at, modeled_duration));  // the dead instance is freed here
  Controller& fresh = *leaves_[i];
  SOFTMOW_LOG(LogLevel::kInfo, "mgmt")
      << "failed over leaf " << fresh.name() << " (" << fresh.devices().size()
      << " devices readopted)";
  return fresh;
}

std::unique_ptr<Controller> ManagementPlane::migrate_leaf(std::size_t i,
                                                          std::unique_ptr<Controller> target,
                                                          const LeafPlacement& placement) {
  sever_leaf(i);
  // §5.3.2 master switchover, per device: the source steps aside and the
  // target's pre-warmed standby session is swapped in as master. Rule
  // tables are untouched — this is a control-session flip only. Devices
  // without a parked standby (caller skipped pre-warming) are adopted
  // cold, which still converges but pays the handshake inside the window.
  auto flip = [this](Controller& source, Controller& fresh) {
    std::vector<SwitchId> devices = source.devices();
    for (SwitchId sw : devices) source.release_physical_switch(*hub_, sw);
    for (SwitchId sw : devices) {
      southbound::SwitchAgent* agent = hub_->agent(sw);
      if (agent == nullptr) continue;
      if (!agent->promote_standby(fresh.id(), dataplane::ControllerRole::kMaster))
        fresh.adopt_physical_switch(*hub_, sw);
    }
    // Discovery PacketIns only reach *active* sessions, so the target could
    // not learn links while parked; one sweep now rebuilds them (the
    // HotStandby::promote idiom).
    fresh.run_link_discovery();
  };
  std::unique_ptr<Controller> retired = install_leaf(i, std::move(target), flip);
  placements_.at(i) = placement;
  Controller& fresh = *leaves_[i];
  SOFTMOW_LOG(LogLevel::kInfo, "mgmt")
      << "migrated leaf " << fresh.name() << " to site " << placement.site << " ("
      << fresh.devices().size() << " devices flipped)";
  return retired;
}

bool ManagementPlane::controller_in_subtree(Controller& scope, Controller& c) const {
  if (&scope == &c) return true;
  for (Controller* child : scope.children()) {
    if (controller_in_subtree(*child, c)) return true;
  }
  return false;
}

Controller* ManagementPlane::best_target_leaf(Controller& scope, BsGroupId g) {
  Controller* best = nullptr;
  double best_weight = -1;
  for (const auto& [neighbor, weight] : spec_.group_adjacency.neighbors(g)) {
    auto it = group_to_leaf_.find(neighbor);
    if (it == group_to_leaf_.end()) continue;
    Controller* candidate = leaves_[it->second].get();
    if (!controller_in_subtree(scope, *candidate)) continue;
    if (weight > best_weight) {
      best_weight = weight;
      best = candidate;
    }
  }
  return best;
}

Result<void> ManagementPlane::reassign_gbs(Controller& initiator, GBsId gbs,
                                           SwitchId source_gswitch, SwitchId target_gswitch) {
  Controller* source_child = initiator.child_by_gswitch(source_gswitch);
  Controller* target_child = initiator.child_by_gswitch(target_gswitch);
  if (source_child == nullptr || target_child == nullptr)
    return {ErrorCode::kNotFound, "initiator has no such child G-switch"};

  BsGroupId group = group_for_gbs_id(gbs);
  auto git = group_to_leaf_.find(group);
  if (git == group_to_leaf_.end()) return {ErrorCode::kNotFound, "unknown BS group"};
  Controller& source_leaf = *leaves_[git->second];
  if (!controller_in_subtree(*source_child, source_leaf))
    return {ErrorCode::kConflict, "group is not under the claimed source G-switch"};

  Controller* target_leaf = best_target_leaf(*target_child, group);
  if (target_leaf == nullptr) {
    // Fall back to any leaf of the target subtree.
    Controller* c = target_child;
    while (!c->is_leaf()) {
      auto children = c->children();
      if (children.empty()) return {ErrorCode::kNotFound, "target subtree has no leaf"};
      c = children.front();
    }
    target_leaf = c;
  }
  if (target_leaf == &source_leaf)
    return {ErrorCode::kConflict, "source and target leaf are the same"};

  SwitchId access = net_->bs_group(group)->access_switch;

  // (i) Equal-role phase: both leaves receive all events (§5.3.2,
  //     OFPCR_ROLE_EQUAL), target processes new requests.
  target_leaf->adopt_physical_switch(*hub_, access, dataplane::ControllerRole::kEqual);
  target_leaf->nib().upsert_gbs(make_group_announce(group));

  // (ii) UE / path state transfer, coordinated by the management plane.
  if (ue_transfer_hook_) ue_transfer_hook_(group, source_leaf, *target_leaf);

  // (iii) Source disconnects; target takes the master role.
  if (auto removed = source_leaf.nib().remove_gbs(gbs); !removed.ok()) {
    SOFTMOW_LOG(LogLevel::kWarn, "mgmt")
        << "source leaf " << source_leaf.name() << " had no G-BS record for " << gbs.str()
        << ": " << removed.error().message;
  }
  source_leaf.release_physical_switch(*hub_, access);
  southbound::RoleRequest promote;
  promote.xid = Xid{0};
  promote.sw = access;
  promote.controller = target_leaf->id();
  promote.role = dataplane::ControllerRole::kMaster;
  if (auto sent = target_leaf->send(access, promote); !sent.ok()) {
    SOFTMOW_LOG(LogLevel::kWarn, "mgmt")
        << "master promotion of " << target_leaf->name() << " on " << access.str()
        << " not sent: " << sent.error().message;
  }

  // (iv) Bookkeeping and bottom-up logical-plane update (§5.3.2 "updating
  //      logical data planes"): borders recomputed (internal groups may have
  //      become border and vice versa), abstractions re-announced, links
  //      rediscovered level by level.
  std::size_t target_index = 0;
  for (std::size_t i = 0; i < leaves_.size(); ++i) {
    if (leaves_[i].get() == target_leaf) target_index = i;
  }
  group_to_leaf_[group] = target_index;
  recompute_borders();
  refresh_topology();

  // (v) Re-establish the transferred bearers from the target leaf, now that
  //     the refreshed logical planes can route to the adopted access switch.
  if (ue_rehome_hook_) ue_rehome_hook_(group, source_leaf, *target_leaf);

  SOFTMOW_LOG(LogLevel::kInfo, "mgmt")
      << "reassigned " << gbs.str() << " from " << source_leaf.name() << " to "
      << target_leaf->name();
  return Ok();
}

verify::VerifyOptions ManagementPlane::verify_options() const {
  verify::VerifyOptions options;
  if (spec_.label_mode == reca::LabelMode::kSwapping) {
    options.max_label_depth = 1;  // §4.3 single-label invariant
  } else {
    // Stacking strawman: one label per hierarchy level above the wire.
    options.max_label_depth = spec_.mid_regions.empty() ? 2 : 3;
  }
  return options;
}

verify::ControlState ManagementPlane::control_state() {
  std::vector<const reca::Controller*> controllers;
  for (reca::Controller* c : all_controllers()) controllers.push_back(c);
  verify::ControlState state = verify::collect_control_state(controllers);
  if (slice_annotator_) slice_annotator_(state);
  return state;
}

verify::VerifyReport ManagementPlane::verify_data_plane() {
  verify::ControlState state = control_state();
  verifier_ = std::make_unique<verify::StaticVerifier>(net_, verify_options());
  return verifier_->verify(&state);
}

verify::VerifyReport ManagementPlane::reverify_data_plane(const std::vector<SwitchId>& dirty) {
  verify::ControlState state = control_state();
  if (!verifier_) verifier_ = std::make_unique<verify::StaticVerifier>(net_, verify_options());
  return verifier_->reverify(dirty, &state);
}

}  // namespace softmow::mgmt

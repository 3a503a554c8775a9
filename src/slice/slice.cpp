#include "slice/slice.h"

#include <utility>

#include "core/log.h"
#include "core/rng.h"

namespace softmow::slice {

const char* to_string(EncapMode mode) {
  switch (mode) {
    case EncapMode::kLabels: return "labels";
    case EncapMode::kTags: return "tags";
  }
  return "unknown";
}

std::uint32_t clause_for(apps::SubscriberClass tier, apps::ApplicationClass app) {
  // 4 tiers x 4 application classes -> dense clause ids in [0, 16), well
  // inside the tag's 5 clause bits.
  return (static_cast<std::uint32_t>(tier) * 4u + static_cast<std::uint32_t>(app)) %
         dataplane::PolicyTag::kMaxClauses;
}

double default_demand_kbps(apps::ApplicationClass app) {
  switch (app) {
    case apps::ApplicationClass::kVoip: return 64;
    case apps::ApplicationClass::kVideo: return 2500;
    case apps::ApplicationClass::kBulk: return 1500;
    case apps::ApplicationClass::kDefault: break;
  }
  return 500;
}

SliceManager::SliceManager(topo::Scenario& scenario, Options opts)
    : scenario_(&scenario),
      opts_(opts),
      ignored_close_metric_(obs::default_registry().counter(
          "ignored_errors_total", {{"site", "slice.close_bearer"}})) {
  for (reca::Controller* c : scenario_->mgmt->all_controllers()) {
    c->set_tag_allocator(tag_allocator());
  }
  scenario_->mgmt->set_slice_annotator([this](verify::ControlState& state) {
    state.have_slices = true;
    state.ue_slices = ue_slices_;
  });
}

SliceManager::~SliceManager() {
  // Controllers keep a raw pointer to the shared allocator and the plane
  // keeps the annotator, which captures this manager; sever both so a
  // scenario outliving its slice manager cannot reach a dead object.
  if (scenario_->mgmt == nullptr) return;
  scenario_->mgmt->set_slice_annotator(nullptr);
  for (reca::Controller* c : scenario_->mgmt->all_controllers()) {
    if (c->tag_allocator() == &tags_) c->set_tag_allocator(nullptr);
  }
}

Result<SliceId> SliceManager::add_slice(SliceSpec spec) {
  if (tenants_.size() >= dataplane::PolicyTag::kMaxSlices) {
    return {ErrorCode::kExhausted,
            "slice id space exhausted (policy tag carries 5 slice bits)"};
  }
  if (spec.share <= 0) {
    return {ErrorCode::kInvalidArgument, "slice share must be positive"};
  }
  if (spec.bearer_mix.empty()) spec.bearer_mix = {apps::ApplicationClass::kDefault};

  auto t = std::make_unique<Tenant>();
  t->id = SliceId{tenants_.size()};
  t->spec = std::move(spec);
  obs::MetricsRegistry& reg = obs::default_registry();
  t->admitted_metric =
      reg.counter("slice_bearers_admitted_total", {{"slice", t->spec.name}});
  t->rejected_metric =
      reg.counter("slice_bearers_rejected_total", {{"slice", t->spec.name}});
  t->reserved_metric = reg.gauge("slice_reserved_kbps", {{"slice", t->spec.name}});
  SliceId id = t->id;
  tenants_.push_back(std::move(t));
  return id;
}

SliceManager::Tenant* SliceManager::tenant(SliceId id) {
  if (!id.valid() || id.value >= tenants_.size()) return nullptr;
  return tenants_[id.value].get();
}

const SliceManager::Tenant* SliceManager::tenant(SliceId id) const {
  if (!id.valid() || id.value >= tenants_.size()) return nullptr;
  return tenants_[id.value].get();
}

std::vector<SliceId> SliceManager::slices() const {
  std::vector<SliceId> out;
  out.reserve(tenants_.size());
  for (const auto& t : tenants_) out.push_back(t->id);
  return out;
}

const SliceSpec& SliceManager::spec(SliceId id) const { return tenant(id)->spec; }

const std::vector<UeId>& SliceManager::subscribers(SliceId id) const {
  return tenant(id)->subscribers;
}

apps::HssApp& SliceManager::hss(SliceId id) { return tenant(id)->hss; }
apps::PcrfApp& SliceManager::pcrf(SliceId id) { return tenant(id)->pcrf; }

SliceStats SliceManager::stats(SliceId id) const {
  const Tenant* t = tenant(id);
  SliceStats s;
  if (t == nullptr) return s;
  s.name = t->spec.name;
  s.subscribers = t->subscribers.size();
  s.bearers_admitted = t->admitted;
  s.bearers_rejected = t->rejected;
  s.bearers_failed = t->failed;
  s.reserved_kbps = t->reserved_kbps;
  s.budget_kbps = budget_of(*t);
  s.bearers_by_level = t->by_level;
  return s;
}

Result<std::size_t> SliceManager::provision(SliceId id, std::size_t count) {
  Tenant* t = tenant(id);
  if (t == nullptr) return {ErrorCode::kNotFound, "unknown slice"};
  const std::vector<BsGroupId>& groups = scenario_->trace.groups;
  if (groups.empty()) {
    return {ErrorCode::kUnavailable, "scenario has no BS groups"};
  }

  // Per-slice deterministic stream: the rotation start depends on the
  // manager seed and the slice id only, so provisioning order is stable
  // across runs.
  Rng rng(opts_.seed * 1000003 + id.value * 8191 + 13);
  std::size_t start = rng.uniform_u64(0, groups.size() - 1);

  std::size_t attached = 0;
  std::size_t attempts = 0;
  const std::size_t max_attempts = count * 4 + 16;
  while (attached < count && attempts < max_attempts) {
    BsGroupId group = groups[(start + attempts) % groups.size()];
    ++attempts;
    const dataplane::BsGroup* bs_group = scenario_->net.bs_group(group);
    reca::Controller* leaf = scenario_->mgmt->leaf_of_group(group);
    if (bs_group == nullptr || bs_group->members.empty() || leaf == nullptr) continue;
    BsId bs = bs_group->members.front();

    // Per-slice UE namespace: disjoint across slices and from trace UEs.
    UeId ue{(0x51ull << 40) | (id.value << 24) |
            static_cast<std::uint64_t>(t->subscribers.size())};
    apps::MobilityApp& mobility = scenario_->apps->mobility(*leaf);
    if (!mobility.ue_attach(ue, bs).ok()) continue;

    apps::SubscriberProfile profile;
    profile.ue = ue;
    profile.tier = t->spec.tier;
    profile.imsi = t->spec.name;
    profile.imsi += ':';
    profile.imsi += std::to_string(t->subscribers.size());
    t->hss.provision(profile);
    t->subscribers.push_back(ue);
    t->attach_bs[ue] = bs;
    t->attach_group[ue] = group;
    ue_slices_[ue] = id;
    ++attached;
  }
  return attached;
}

Result<BearerId> SliceManager::open_bearer(SliceId id, UeId ue, PrefixId dst) {
  Tenant* t = tenant(id);
  if (t == nullptr) return {ErrorCode::kNotFound, "unknown slice"};
  apps::ApplicationClass app = t->spec.bearer_mix[t->mix_cursor % t->spec.bearer_mix.size()];
  ++t->mix_cursor;
  return open_bearer(id, ue, dst, app);
}

Result<BearerId> SliceManager::open_bearer(SliceId id, UeId ue, PrefixId dst,
                                           apps::ApplicationClass app) {
  SHARD_CHECKED(guard_, kWrite);
  Tenant* t = tenant(id);
  if (t == nullptr) return {ErrorCode::kNotFound, "unknown slice"};
  auto owner = ue_slices_.find(ue);
  if (owner == ue_slices_.end() || !(owner->second == id)) {
    return {ErrorCode::kPermission,
                         "subscriber does not belong to this slice"};
  }
  const apps::SubscriberProfile* profile = t->hss.lookup(ue);
  if (profile == nullptr) {
    return {ErrorCode::kNotFound, "subscriber not provisioned"};
  }
  auto authorized = t->hss.authorize_attach(ue);
  if (!authorized.ok()) return {authorized.code(), authorized.error().message};

  Result<apps::BearerRequest> request =
      t->pcrf.make_request(*profile, t->attach_bs.at(ue), dst, app);
  if (!request.ok()) return {request.code(), request.error().message};

  // Admission control against this slice's share of the bearer pool.
  double demand = request->qos.min_bandwidth_kbps > 0 ? request->qos.min_bandwidth_kbps
                                                      : default_demand_kbps(app);
  if (t->reserved_kbps + demand > budget_of(*t) + 1e-9) {
    ++t->rejected;
    t->rejected_metric->inc();
    std::string msg = "slice '";
    msg += t->spec.name;
    msg += "' bearer budget exhausted";
    return {ErrorCode::kExhausted, msg};
  }

  request->slice = id;
  request->policy_clause = clause_for(profile->tier, app);

  reca::Controller* leaf = scenario_->mgmt->leaf_of_group(t->attach_group.at(ue));
  if (leaf == nullptr) return {ErrorCode::kUnavailable, "no leaf for group"};
  apps::MobilityApp& mobility = scenario_->apps->mobility(*leaf);
  Result<BearerId> bearer = mobility.request_bearer(*request);
  if (!bearer.ok()) {
    ++t->failed;
    return bearer;
  }

  t->reserved_kbps += demand;
  t->reserved_metric->set(t->reserved_kbps);
  t->open_kbps[{ue, *bearer}] = demand;
  ++t->admitted;
  t->admitted_metric->inc();
  if (const apps::UeRecord* rec = mobility.ue(ue)) {
    auto it = rec->bearers.find(*bearer);
    if (it != rec->bearers.end()) ++t->by_level[it->second.handled_level];
  }
  return bearer;
}

Result<void> SliceManager::close_bearer(SliceId id, UeId ue, BearerId bearer) {
  SHARD_CHECKED(guard_, kWrite);
  Tenant* t = tenant(id);
  if (t == nullptr) return {ErrorCode::kNotFound, "unknown slice"};
  auto it = t->open_kbps.find({ue, bearer});
  if (it == t->open_kbps.end()) {
    return {ErrorCode::kNotFound, "bearer not open in this slice"};
  }
  reca::Controller* leaf = scenario_->mgmt->leaf_of_group(t->attach_group.at(ue));
  // The slice's charge is released either way; a bearer the leaf no longer
  // holds under this id (the UE moved away, or a re-activation replaced it)
  // is counted.
  if (leaf != nullptr && !scenario_->apps->mobility(*leaf).deactivate_bearer(ue, bearer).ok())
    ignored_close_metric_->inc();
  t->reserved_kbps -= it->second;
  if (t->reserved_kbps < 0) t->reserved_kbps = 0;
  t->reserved_metric->set(t->reserved_kbps);
  t->open_kbps.erase(it);
  return Ok();
}

}  // namespace softmow::slice

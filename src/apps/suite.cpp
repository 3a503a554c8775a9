#include "apps/suite.h"

namespace softmow::apps {

AppSuite::AppSuite(mgmt::ManagementPlane& mgmt) : mgmt_(mgmt) {
  for (reca::Controller* c : mgmt_.all_controllers()) {
    mobility_[c->id()] = std::make_unique<MobilityApp>(c, &mgmt_.net());
    interdomain_[c->id()] = std::make_unique<InterdomainApp>(c);
    if (!c->is_leaf()) {
      region_opt_[c->id()] =
          std::make_unique<RegionOptApp>(c, mobility_[c->id()].get(), &mgmt_);
    }
  }
  // §5.3.2: the management plane coordinates UE state transfer during region
  // reconfiguration; the actual state lives in the leaf mobility apps.
  mgmt_.set_ue_transfer_hook(
      [this](BsGroupId group, reca::Controller& from, reca::Controller& to) {
        mobility_.at(to.id())->absorb_group_state(
            mobility_.at(from.id())->extract_group_state(group));
      });
  mgmt_.set_ue_rehome_hook(
      [this](BsGroupId group, reca::Controller& /*from*/, reca::Controller& to) {
        mobility_.at(to.id())->rehome_transferred_bearers(group);
      });
  // A swapped-in leaf answers to the same ControllerId: its apps keep their
  // state (UE tables, bearers, handover logs) and follow the new instance.
  mgmt_.set_leaf_swap_hook([this](reca::Controller& c) {
    mobility_.at(c.id())->rebind(&c);
    interdomain_.at(c.id())->rebind(&c);
  });
}

RegionOptApp* AppSuite::region_opt(reca::Controller& c) {
  auto it = region_opt_.find(c.id());
  return it == region_opt_.end() ? nullptr : it->second.get();
}

std::map<ControllerId, RegionOptApp*> AppSuite::region_opt_map() {
  std::map<ControllerId, RegionOptApp*> out;
  for (auto& [id, app] : region_opt_) out[id] = app.get();
  return out;
}

void AppSuite::originate_interdomain(const ExternalPathProvider& provider) {
  for (reca::Controller* leaf : mgmt_.leaves()) {
    interdomain_.at(leaf->id())->originate(provider);
  }
}

MobilityApp& AppSuite::leaf_mobility_of_group(BsGroupId group) {
  return *mobility_.at(mgmt_.leaf_of_group(group)->id());
}

std::vector<verify::ControlState::BearerClaim> AppSuite::bearer_claims() {
  std::vector<verify::ControlState::BearerClaim> claims;
  for (reca::Controller* leaf : mgmt_.leaves()) {
    MobilityApp& app = *mobility_.at(leaf->id());
    for (const auto& [ue_id, rec] : app.ues()) {
      for (const auto& [bearer_id, bearer] : rec.bearers) {
        verify::ControlState::BearerClaim claim;
        claim.ue = ue_id;
        claim.bearer = bearer_id;
        claim.active = bearer.active;
        if (bearer.handled_locally) {
          claim.path_installed = leaf->paths().path(bearer.local_path) != nullptr;
        } else {
          // Delegated: any ancestor that holds the key vouches for it.
          for (auto& [id, candidate] : mobility_) {
            if (candidate->holds_ancestor_path(bearer.ancestor_key)) {
              claim.path_installed = true;
              break;
            }
          }
        }
        claims.push_back(claim);
      }
    }
  }
  return claims;
}

}  // namespace softmow::apps

// Convenience bundle: instantiates the full set of operator applications on
// every controller of a bootstrapped hierarchy and wires the cross-cutting
// hooks (UE state transfer during reconfiguration, re-attachment after a
// leaf swap, interdomain origination).
// Examples, benches and integration tests all start from this.
#pragma once

#include <map>
#include <memory>

#include "apps/interdomain.h"
#include "apps/mobility.h"
#include "apps/region_opt.h"
#include "mgmt/management.h"
#include "verify/verifier.h"

namespace softmow::apps {

class AppSuite {
 public:
  explicit AppSuite(mgmt::ManagementPlane& mgmt);

  [[nodiscard]] MobilityApp& mobility(reca::Controller& c) {
    return *mobility_.at(c.id());
  }
  [[nodiscard]] InterdomainApp& interdomain(reca::Controller& c) {
    return *interdomain_.at(c.id());
  }
  /// Region optimization exists only at non-leaf controllers.
  [[nodiscard]] RegionOptApp* region_opt(reca::Controller& c);
  [[nodiscard]] std::map<ControllerId, RegionOptApp*> region_opt_map();

  /// Leaf-side interdomain origination + recursive propagation to the root.
  void originate_interdomain(const ExternalPathProvider& provider);

  /// The leaf mobility app currently serving `group`.
  [[nodiscard]] MobilityApp& leaf_mobility_of_group(BsGroupId group);

  /// Bearer-to-path claims across every leaf, for the static verifier: each
  /// active bearer paired with whether a live installed path (local or
  /// ancestor-held) actually backs it.
  [[nodiscard]] std::vector<verify::ControlState::BearerClaim> bearer_claims();

  [[nodiscard]] mgmt::ManagementPlane& mgmt() { return mgmt_; }

 private:
  mgmt::ManagementPlane& mgmt_;
  std::map<ControllerId, std::unique_ptr<MobilityApp>> mobility_;
  std::map<ControllerId, std::unique_ptr<InterdomainApp>> interdomain_;
  std::map<ControllerId, std::unique_ptr<RegionOptApp>> region_opt_;
};

}  // namespace softmow::apps

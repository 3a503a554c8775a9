// Interdomain routing application (paper §4.2).
//
// Leaf controllers act like RCP servers: for each gateway (egress) switch
// they select interdomain routes per destination prefix, annotated with
// measured external performance (hops, latency). Routes are then forwarded
// up the hierarchy as application messages; at each level RecA's port
// mapping translates the egress endpoint into the parent's logical ID space,
// until the root has a route table over its own topology.
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "core/ids.h"
#include "nos/nib.h"
#include "reca/controller.h"

namespace softmow::apps {

/// External path cost from one egress point to one destination prefix —
/// what the paper measures from iPlane/PlanetLab traceroutes.
struct ExternalCost {
  double hops = 0;
  double latency_us = 0;
};

/// Source of external path measurements (implemented by the synthetic
/// iPlane model in src/topo, or by tests directly).
class ExternalPathProvider {
 public:
  virtual ~ExternalPathProvider() = default;
  [[nodiscard]] virtual std::vector<PrefixId> prefixes() const = 0;
  /// Cost from `egress` to `prefix`; nullopt when that peer has no route.
  [[nodiscard]] virtual std::optional<ExternalCost> cost(EgressId egress,
                                                         PrefixId prefix) const = 0;
};

/// Message type used on the eastbound/controller channels.
inline constexpr const char* kInterdomainRouteMsg = "interdomain-route";

class InterdomainApp {
 public:
  /// Attaches to `controller`: registers for route messages from children
  /// and (if non-root) prepares upward propagation.
  explicit InterdomainApp(reca::Controller* controller);

  /// Re-attaches to a replacement controller instance after failover (§6);
  /// routes themselves live in the NIB, which the promotion restored.
  void rebind(reca::Controller* controller);

  /// Leaf-side origination: selects routes for every egress port in the NIB
  /// against `provider` and installs + propagates them.
  void originate(const ExternalPathProvider& provider);

 private:
  void register_handlers();
  void install_and_propagate(nos::ExternalRoute route);

  reca::Controller* controller_;
};

}  // namespace softmow::apps

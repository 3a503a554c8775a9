// Region optimization application (paper §5.3): periodically refines the
// borders between an initiator controller's sub-regions to minimize the
// inter-region handovers it must mediate.
//
// The greedy local search itself is a pure function over (handover graph,
// G-BS -> G-switch assignment, loads, constraints) so benches and property
// tests can drive it at scale without a control plane; the app wrapper
// collects the real handover graph from the mobility application and
// executes the chosen moves through the management plane's reconfiguration
// protocol (§5.3.2).
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "apps/mobility.h"
#include "core/ids.h"
#include "core/result.h"
#include "core/weighted_adjacency.h"
#include "mgmt/management.h"
#include "reca/controller.h"

namespace softmow::apps {

struct RegionOptConstraints {
  /// §7.4: each child region's control load must stay within ±30% of its
  /// initial load.
  double lb_factor = 0.7;
  double ub_factor = 1.3;
  std::size_t max_moves = static_cast<std::size_t>(-1);
};

struct Move {
  GBsId gbs;
  SwitchId from;
  SwitchId to;
  double gain;  ///< reduction in initiator-visible inter-region handovers
};

struct RegionOptInput {
  /// Handover graph in the initiator's view (§5.3.1).
  WeightedAdjacency<GBsId> graph;
  /// Current G-BS -> G-switch (child region) assignment.
  std::map<GBsId, SwitchId> attach;
  /// Border G-BSes eligible for reassignment (internal aggregates are not).
  std::set<GBsId> movable;
  /// Inter-G-switch adjacency: a move s->t requires a link between s and t.
  std::set<std::pair<SwitchId, SwitchId>> gswitch_links;
  /// Control-plane load attributed to each G-BS (bearer + UE + handover
  /// arrivals); drives the LB/UB constraints.
  std::map<GBsId, double> load;
};

struct RegionOptResult {
  std::vector<Move> moves;
  double initial_cross_weight = 0;  ///< inter-region handovers before
  double final_cross_weight = 0;    ///< ... and after
  std::map<GBsId, SwitchId> final_attach;
};

/// Weight of edges crossing regions under `attach` — the quantity the
/// initiator controller pays for (each such handover needs its mediation).
[[nodiscard]] double cross_region_weight(const WeightedAdjacency<GBsId>& graph,
                                         const std::map<GBsId, SwitchId>& attach);

/// The §5.3.1 greedy: repeatedly reassign the border G-BS with the maximum
/// positive gain, subject to per-region load bounds, until no move helps.
[[nodiscard]] RegionOptResult greedy_region_optimization(RegionOptInput input,
                                                         const RegionOptConstraints& c);

class RegionOptApp {
 public:
  RegionOptApp(reca::Controller* controller, MobilityApp* mobility,
               mgmt::ManagementPlane* mgmt)
      : controller_(controller), mobility_(mobility), mgmt_(mgmt) {}

  /// One optimization round at this (non-leaf) controller: collect the
  /// subtree's handover graph, run the greedy, and (if `execute`) perform
  /// each reassignment through the management plane. `loads` may be empty,
  /// in which case each G-BS's handover degree is used as its load proxy.
  Result<RegionOptResult> optimize_round(const RegionOptConstraints& constraints,
                                         const std::map<GBsId, double>& loads,
                                         bool execute);

 private:
  reca::Controller* controller_;
  MobilityApp* mobility_;
  mgmt::ManagementPlane* mgmt_;
};

}  // namespace softmow::apps

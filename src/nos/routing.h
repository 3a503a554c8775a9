// The NOS routing service (paper §4.2): computes end-to-end optimal paths
// over this controller's (physical or logical) topology.
//
//   (path, match fields) = Routing(request, service policy)
//
// Internet-bound requests combine the *internal* path cost (to an egress
// point) with the *external* cost of the interdomain route selected at that
// egress (hops / latency from the iPlane-style measurements) — the paper's
// §4.2 example bounds the end-to-end hop count including external hops.
//
// A request that cannot be satisfied in this controller's region returns
// kUnsatisfiable / kNotFound; the caller (mobility app) then delegates it to
// the parent controller via RecA.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "core/flat_map.h"
#include "core/graph.h"
#include "core/ids.h"
#include "core/result.h"
#include "dataplane/entities.h"
#include "nos/nib.h"
#include "nos/port_graph.h"
#include "obs/metrics.h"

namespace softmow::nos {

/// A service policy: the chain of middlebox types the flow must traverse, in
/// order (§2.1's poset, restricted to a chain — the common case; a general
/// poset is linearized by the operator application before requesting).
struct ServicePolicy {
  std::vector<dataplane::MiddleboxType> chain;

  [[nodiscard]] bool empty() const { return chain.empty(); }
};

struct RoutingRequest {
  /// Port-level origin: the radio port of an access switch (leaf) or a G-BS
  /// attachment port of a G-switch (non-leaf).
  Endpoint source;
  /// Internet destination; mutually exclusive with `dst`.
  std::optional<PrefixId> dst_prefix;
  /// Explicit internal destination (e.g. a handover transfer path target).
  std::optional<Endpoint> dst;
  PathConstraints constraints;
  ServicePolicy policy;
  /// Primary optimization objective. The paper's Fig. 8/9 experiments route
  /// on hop count and latency respectively.
  Metric objective = Metric::kHops;
};

struct ComputedRoute {
  GraphPath port_path;           ///< stitched path in the port graph
  std::vector<RouteHop> hops;    ///< per-switch traversals, in order
  Endpoint source;
  Endpoint exit;                 ///< egress port or internal destination port
  std::optional<EgressId> egress_id;  ///< set when internet-bound
  PrefixId prefix;               ///< destination prefix (when internet-bound)
  EdgeMetrics internal;          ///< internal path metrics
  double external_hops = 0;
  double external_latency_us = 0;
  std::vector<MiddleboxId> middleboxes;  ///< instances traversed, in order

  [[nodiscard]] double total_hops() const { return internal.hop_count + external_hops; }
  [[nodiscard]] double total_latency_us() const {
    return internal.latency_us + external_latency_us;
  }
  [[nodiscard]] bool internet_bound() const { return egress_id.has_value(); }
};

class RoutingService {
 public:
  /// `level` labels this controller's route_trees_total series.
  RoutingService(const Nib* nib, std::uint8_t level);

  /// Computes the best route satisfying the request, or an error:
  ///   kNotFound       — no route / no interdomain route for the prefix;
  ///   kUnsatisfiable  — routes exist but none meets the constraints/policy.
  [[nodiscard]] Result<ComputedRoute> route(const RoutingRequest& req) const;

  /// Best-path metrics from `source` to every reachable port node —
  /// the building block of vFabric computation. Deterministic iteration
  /// (node-insertion order of the port graph). `via`, when given, receives
  /// the tree itself (Graph::shortest_tree).
  [[nodiscard]] core::FlatMap<NodeKey, EdgeMetrics> reachability(
      Endpoint source, Metric metric, PathTree* via = nullptr) const;

  /// The port graph for the current NIB state. Cached: a topology change
  /// (NIB version) rebuilds it; a bandwidth change (NIB bandwidth epoch)
  /// patches the two edges of each stamped link in place, which leaves it
  /// edge-for-edge equal to a rebuild.
  [[nodiscard]] const Graph& port_graph() const;
  /// Where the NIB links sit in port_graph(); valid until the next NIB
  /// topology change.
  [[nodiscard]] const PortGraphLinks& port_graph_links() const { return links_cache_; }

 private:
  struct StageNode {
    Endpoint at;
    MiddleboxId middlebox;  ///< invalid for source/destination stages
  };

  [[nodiscard]] Result<ComputedRoute> route_to_candidates(
      const RoutingRequest& req,
      const std::vector<ExternalRoute>& candidates) const;
  /// The cached full shortest-path tree from `src` on port_graph(), built on
  /// first use. Call only after port_graph() in the same query; the reference
  /// is valid until the next call.
  [[nodiscard]] const PathTree& tree_from(NodeKey src, Metric objective) const;

  const Nib* nib_;
  mutable Graph graph_cache_;
  mutable PortGraphLinks links_cache_;
  mutable std::uint64_t cache_version_ = ~0ull;
  mutable std::uint64_t cache_bandwidth_epoch_ = 0;
  /// Route trees on graph_cache_, per (source, objective). Dropped
  /// when the graph is rebuilt; kept across bandwidth patches, which cannot
  /// reshape a 0 kbps-floor tree (the NIB floors available bandwidth at 0).
  mutable core::FlatMap<std::pair<NodeKey, Metric>, PathTree> trees_;
  obs::Counter* trees_built_metric_ = nullptr;   ///< route_trees_total{level,result=built}
  obs::Counter* trees_reused_metric_ = nullptr;  ///< route_trees_total{level,result=reused}
  /// route_trees_total{level,result=floored_hit|floored_miss}: floored
  /// segments served from the tree / left to the floored search.
  obs::Counter* floored_hit_metric_ = nullptr;
  obs::Counter* floored_miss_metric_ = nullptr;
};

}  // namespace softmow::nos

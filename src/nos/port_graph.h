// Port-level routing graph.
//
// A controller's topology mixes physical switches (where moving between any
// two ports is free) and G-switches (where moving between two border ports
// costs the vFabric metrics of the child's best internal path, §3.2). A
// switch-level graph cannot express per-port-pair traversal costs, so the
// NOS routes on a graph whose nodes are (switch, port) pairs:
//
//   * intra-switch edges connect port pairs — zero-cost for physical
//     switches, vFabric-cost for G-switches;
//   * inter-switch edges mirror the NIB's discovered links.
#pragma once

#include "core/graph.h"
#include "core/ids.h"
#include "nos/nib.h"

namespace softmow::nos {

/// Packs (switch, port) into a graph NodeKey. Ports are < 2^16.
[[nodiscard]] constexpr NodeKey port_key(SwitchId sw, PortId port) {
  return (sw.value << 16) | (port.value & 0xffff);
}
[[nodiscard]] constexpr SwitchId key_switch(NodeKey k) { return SwitchId{k >> 16}; }
[[nodiscard]] constexpr PortId key_port(NodeKey k) { return PortId{k & 0xffff}; }
[[nodiscard]] constexpr Endpoint key_endpoint(NodeKey k) {
  return Endpoint{key_switch(k), key_port(k)};
}

/// One (in-port -> out-port) traversal of a switch, recovered from a port
/// path. A switch crossed through a middlebox detour yields several hops.
struct RouteHop {
  SwitchId sw;
  PortId in;
  PortId out;

  friend bool operator==(const RouteHop&, const RouteHop&) = default;
};

/// Where the NIB's links landed in a port graph. Link edges are added last,
/// two per up link (a->b, then b->a), so they form one contiguous key range:
/// up link k has edges first_edge + 2k and first_edge + 2k + 1.
struct PortGraphLinks {
  static constexpr std::uint32_t kNoLink = 0xffffffffu;
  EdgeKey first_edge = 1;
  std::vector<std::uint32_t> slot_of_pair;  ///< NIB link slot of up link k

  /// NIB link slot behind edge `e`, or kNoLink for an intra-switch edge.
  [[nodiscard]] std::uint32_t slot_of(EdgeKey e) const {
    return e < first_edge ? kNoLink : slot_of_pair[(e - first_edge) / 2];
  }
};

/// Builds the port-level graph for the NIB's current topology, recording the
/// link edges in `links` when given.
[[nodiscard]] Graph build_port_graph(const Nib& nib, PortGraphLinks* links = nullptr);

/// Converts a port-graph path into per-switch hops. The first node is where
/// the flow enters its first switch; the last node is where it leaves.
[[nodiscard]] std::vector<RouteHop> hops_from_path(const GraphPath& path);

}  // namespace softmow::nos

#include "nos/port_graph.h"

#include <limits>

namespace softmow::nos {

Graph build_port_graph(const Nib& nib, PortGraphLinks* links) {
  Graph g;
  constexpr double kInf = std::numeric_limits<double>::infinity();

  for (SwitchId sw_id : nib.switches()) {
    const SwitchRecord* rec = nib.sw(sw_id);
    // Nodes: every port.
    for (const auto& [pid, desc] : rec->ports) g.add_node(port_key(sw_id, pid));

    if (rec->is_gswitch && !rec->vfabric.empty()) {
      // vFabric edges: directed per entry.
      for (const southbound::VFabricEntry& e : rec->vfabric) {
        g.add_edge(port_key(sw_id, e.from), port_key(sw_id, e.to), e.metrics);
      }
    } else {
      // Physical switch: free movement between all port pairs.
      for (const auto& [p, dp] : rec->ports) {
        if (!dp.up) continue;
        for (const auto& [q, dq] : rec->ports) {
          if (p == q || !dq.up) continue;
          g.add_edge(port_key(sw_id, p), port_key(sw_id, q),
                     EdgeMetrics{0.0, 0.0, kInf});
        }
      }
    }
  }

  if (links != nullptr) {
    links->first_edge = g.edge_count() + 1;  // the build removes no edges
    links->slot_of_pair.clear();
  }
  for (std::uint32_t slot = 0; slot < nib.links().size(); ++slot) {
    const LinkRecord& l = nib.links()[slot];
    if (!l.up) continue;
    g.add_edge(port_key(l.a.sw, l.a.port), port_key(l.b.sw, l.b.port), l.metrics);
    g.add_edge(port_key(l.b.sw, l.b.port), port_key(l.a.sw, l.a.port), l.metrics);
    if (links != nullptr) links->slot_of_pair.push_back(slot);
  }
  return g;
}

std::vector<RouteHop> hops_from_path(const GraphPath& path) {
  std::vector<RouteHop> hops;
  for (std::size_t i = 0; i + 1 < path.nodes.size(); ++i) {
    Endpoint u = key_endpoint(path.nodes[i]);
    Endpoint v = key_endpoint(path.nodes[i + 1]);
    if (u.sw == v.sw && !(u.port == v.port)) {
      hops.push_back(RouteHop{u.sw, u.port, v.port});
    }
    // Inter-switch steps produce no hop; the next intra step records the
    // traversal of the receiving switch.
  }
  return hops;
}

}  // namespace softmow::nos

// Reference implementation of the §7.1 BS-group inference, kept for tests
// only: the literal greedy that deletes the lightest edge and then recomputes
// every connected component, freezing those with <= max_group_size stations.
// It costs O(E·(V+E)·log V), about 2 s at 1000 stations in Release, so
// tests run it on small graphs only. topo::infer_bs_groups must return
// exactly what this returns, group for group and in order.
#pragma once

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "topo/bs_group_inference.h"

namespace softmow::topo::oracle {

/// Connected components of an undirected adjacency restricted to `alive`.
inline std::vector<std::vector<BsId>> components(
    const std::map<BsId, std::set<BsId>>& adjacency, const std::set<BsId>& alive) {
  std::vector<std::vector<BsId>> out;
  std::set<BsId> seen;
  for (BsId start : alive) {
    if (seen.contains(start)) continue;
    std::vector<BsId> component;
    std::vector<BsId> stack{start};
    seen.insert(start);
    while (!stack.empty()) {
      BsId node = stack.back();
      stack.pop_back();
      component.push_back(node);
      auto it = adjacency.find(node);
      if (it == adjacency.end()) continue;
      for (BsId next : it->second) {
        if (alive.contains(next) && seen.insert(next).second) stack.push_back(next);
      }
    }
    std::sort(component.begin(), component.end());
    out.push_back(std::move(component));
  }
  return out;
}

inline std::vector<InferredGroup> greedy_bs_groups(const WeightedAdjacency<BsId>& graph,
                                                   const InferenceParams& params = {}) {
  // Edge list sorted ascending by weight (removal order) and a mutable
  // adjacency.
  auto edges = graph.edges();
  std::sort(edges.begin(), edges.end(),
            [](const auto& a, const auto& b) { return a.second < b.second; });

  std::map<BsId, std::set<BsId>> adjacency;
  std::set<BsId> alive(graph.nodes().begin(), graph.nodes().end());
  for (const auto& [key, w] : edges) {
    adjacency[key.first].insert(key.second);
    adjacency[key.second].insert(key.first);
  }

  std::vector<InferredGroup> groups;
  auto freeze_small_components = [&] {
    for (auto& component : components(adjacency, alive)) {
      if (component.size() > params.max_group_size) continue;
      for (BsId bs : component) {
        alive.erase(bs);
        for (BsId peer : adjacency[bs]) adjacency[peer].erase(bs);
        adjacency.erase(bs);
      }
      groups.push_back(InferredGroup{std::move(component)});
    }
  };

  freeze_small_components();  // isolated stations / tiny islands up front
  for (const auto& [key, w] : edges) {
    if (alive.empty()) break;
    auto [a, b] = key;
    if (!alive.contains(a) || !alive.contains(b)) continue;  // already frozen
    adjacency[a].erase(b);
    adjacency[b].erase(a);
    freeze_small_components();
  }
  freeze_small_components();
  return groups;
}

}  // namespace softmow::topo::oracle

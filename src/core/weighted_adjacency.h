// Undirected weighted adjacency — the "handover graph" structure used at
// every granularity in SoftMoW: base-station level (trace), BS-group level
// (leaf controllers), and G-BS level (ancestor controllers, §5.3.1).
//
// Memory model (DESIGN §12): the edge store is a flat open-addressing table
// (core::FlatMap) keyed by the ordered node pair, so the per-handover
// accumulate (`add`) is O(1) amortized with no per-edge node allocation.
// Accessors that callers iterate for *results* (edges(), neighbors())
// return ID-sorted copies, so partitioning and optimization output does not
// depend on handover arrival order.
#pragma once

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include "core/flat_map.h"

namespace softmow {

template <class IdT>
class WeightedAdjacency {
 public:
  using Edge = std::pair<std::pair<IdT, IdT>, double>;

  void add_node(IdT node) { nodes_.insert(node); }

  /// Accumulates `weight` onto the undirected edge {a, b}.
  void add(IdT a, IdT b, double weight) {
    if (a == b) return;
    nodes_.insert(a);
    nodes_.insert(b);
    edges_[ordered(a, b)] += weight;
  }

  void set(IdT a, IdT b, double weight) {
    if (a == b) return;
    nodes_.insert(a);
    nodes_.insert(b);
    edges_[ordered(a, b)] = weight;
  }

  void remove_node(IdT node) {
    nodes_.erase(node);
    std::vector<std::pair<IdT, IdT>> doomed;
    for (const auto& [key, w] : edges_) {
      if (key.first == node || key.second == node) doomed.push_back(key);
    }
    for (const auto& key : doomed) edges_.erase(key);
  }

  [[nodiscard]] double weight(IdT a, IdT b) const {
    const double* w = edges_.find_value(ordered(a, b));
    return w == nullptr ? 0.0 : *w;
  }

  [[nodiscard]] const std::set<IdT>& nodes() const { return nodes_; }
  [[nodiscard]] std::size_t edge_count() const { return edges_.size(); }

  /// Edges sorted by node pair (the order the old std::map store produced).
  [[nodiscard]] std::vector<Edge> edges() const {
    std::vector<Edge> out(edges_.begin(), edges_.end());
    std::sort(out.begin(), out.end(),
              [](const Edge& x, const Edge& y) { return x.first < y.first; });
    return out;
  }

  /// Neighbors of `node` sorted by ID.
  [[nodiscard]] std::vector<std::pair<IdT, double>> neighbors(IdT node) const {
    std::vector<std::pair<IdT, double>> out;
    for (const auto& [key, w] : edges_) {
      if (key.first == node) out.emplace_back(key.second, w);
      else if (key.second == node) out.emplace_back(key.first, w);
    }
    std::sort(out.begin(), out.end(),
              [](const auto& x, const auto& y) { return x.first < y.first; });
    return out;
  }

  /// Sum of weights of edges incident to `node`.
  [[nodiscard]] double degree_weight(IdT node) const {
    double total = 0;
    for (const auto& [n, w] : neighbors(node)) total += w;
    return total;
  }

  [[nodiscard]] double total_weight() const {
    double total = 0;
    for (const auto& [key, w] : edges_) total += w;
    return total;
  }

  void clear() {
    nodes_.clear();
    edges_.clear();
  }

  /// Merges another graph into this one (weight accumulation) — used when an
  /// ancestor aggregates child handover histories (§5.3.1). Accumulation
  /// runs in the other graph's sorted edge order so the floating-point sums
  /// are independent of its insertion history.
  void merge(const WeightedAdjacency& other) {
    for (IdT n : other.nodes_) nodes_.insert(n);
    for (const auto& [key, w] : other.edges()) edges_[key] += w;
  }

 private:
  static std::pair<IdT, IdT> ordered(IdT a, IdT b) {
    return a < b ? std::make_pair(a, b) : std::make_pair(b, a);
  }

  std::set<IdT> nodes_;  ///< sorted: result-order contract for callers
  core::FlatMap<std::pair<IdT, IdT>, double> edges_;
};

}  // namespace softmow

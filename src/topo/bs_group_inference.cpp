#include "topo/bs_group_inference.h"

#include <algorithm>
#include <cstdint>
#include <numeric>

#include "core/flat_map.h"

namespace softmow::topo {

namespace {

/// Union-find over dense station indices (path halving, union by size).
class DisjointSets {
 public:
  explicit DisjointSets(std::size_t n) : parent_(n), size_(n, 1) {
    std::iota(parent_.begin(), parent_.end(), std::uint32_t{0});
  }

  [[nodiscard]] std::uint32_t find(std::uint32_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }

  [[nodiscard]] std::size_t size(std::uint32_t root) const { return size_[root]; }

  /// Joins two distinct roots and returns the surviving one.
  std::uint32_t unite(std::uint32_t a, std::uint32_t b) {
    if (size_[a] < size_[b]) std::swap(a, b);
    parent_[b] = a;
    size_[a] += size_[b];
    return a;
  }

 private:
  std::vector<std::uint32_t> parent_;
  std::vector<std::size_t> size_;
};

}  // namespace

std::vector<InferredGroup> infer_bs_groups(const WeightedAdjacency<BsId>& graph,
                                           const InferenceParams& params) {
  // Deletion order of the greedy: ascending weight. The same sort over the
  // same pair-sorted edge list, so equal weights tie-break as the greedy did.
  auto edges = graph.edges();
  std::sort(edges.begin(), edges.end(),
            [](const auto& a, const auto& b) { return a.second < b.second; });

  // Dense indices in BsId order: a cluster's smallest index is its smallest
  // station, and sorted indices map to sorted members.
  const std::vector<BsId> stations(graph.nodes().begin(), graph.nodes().end());
  auto index_of = [&](BsId bs) {
    return static_cast<std::uint32_t>(
        std::lower_bound(stations.begin(), stations.end(), bs) - stations.begin());
  };

  // `step` is when the greedy freezes the cluster: 0 = up front (a whole
  // component), j + 1 = right after deleting edge j.
  struct Frozen {
    std::size_t step;
    std::vector<std::uint32_t> members;
  };
  std::vector<Frozen> frozen;
  DisjointSets sets(stations.size());
  // Members per root, kept only while the cluster is small enough to freeze.
  std::vector<std::vector<std::uint32_t>> members(stations.size());
  for (std::uint32_t i = 0; i < stations.size(); ++i) members[i] = {i};

  // Adding edges in reverse deletion order builds the greedy's split tree
  // bottom-up: the merge at edge j is the split the greedy makes when it
  // deletes edge j, and a side that fits is exactly a component it freezes.
  for (std::size_t j = edges.size(); j-- > 0;) {
    std::uint32_t a = sets.find(index_of(edges[j].first.first));
    std::uint32_t b = sets.find(index_of(edges[j].first.second));
    if (a == b) continue;  // deleting edge j leaves its component whole
    if (sets.size(a) + sets.size(b) > params.max_group_size) {
      for (std::uint32_t side : {a, b}) {
        if (sets.size(side) <= params.max_group_size)
          frozen.push_back(Frozen{j + 1, std::move(members[side])});
        members[side].clear();
      }
    }
    std::uint32_t root = sets.unite(a, b);
    std::uint32_t child = root == a ? b : a;
    members[root].insert(members[root].end(), members[child].begin(), members[child].end());
    members[child].clear();
  }
  for (std::uint32_t i = 0; i < stations.size(); ++i) {
    if (sets.find(i) == i && sets.size(i) <= params.max_group_size)
      frozen.push_back(Frozen{0, std::move(members[i])});
  }

  // The greedy emits by step, and within one step in order of smallest
  // member (the order its component search visits them).
  for (Frozen& f : frozen) std::sort(f.members.begin(), f.members.end());
  std::sort(frozen.begin(), frozen.end(), [](const Frozen& x, const Frozen& y) {
    return x.step != y.step ? x.step < y.step : x.members.front() < y.members.front();
  });

  std::vector<InferredGroup> groups;
  groups.reserve(frozen.size());
  for (const Frozen& f : frozen) {
    InferredGroup group;
    group.members.reserve(f.members.size());
    for (std::uint32_t i : f.members) group.members.push_back(stations[i]);
    groups.push_back(std::move(group));
  }
  return groups;
}

double intra_group_weight_fraction(const WeightedAdjacency<BsId>& graph,
                                   const std::vector<InferredGroup>& groups) {
  double total = graph.total_weight();
  if (total <= 0) return 1.0;
  core::FlatMap<BsId, std::size_t> group_of;
  for (std::size_t i = 0; i < groups.size(); ++i) {
    for (BsId bs : groups[i].members) group_of[bs] = i;
  }
  double intra = 0;
  for (const auto& [key, w] : graph.edges()) {
    const std::size_t* a = group_of.find_value(key.first);
    const std::size_t* b = group_of.find_value(key.second);
    if (a != nullptr && b != nullptr && *a == *b) intra += w;
  }
  return intra / total;
}

}  // namespace softmow::topo

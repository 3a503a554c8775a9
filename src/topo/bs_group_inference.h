// BS-group inference (paper §7.1): the dataset has no BS-group structure,
// so groups of at most 6 base stations are inferred from the base-station
// handover graph by a greedy algorithm that maximizes intra-group handover
// weight: repeatedly remove the lowest-weight edge and freeze every
// connected component that has shrunk to <= max_group_size stations.
//
// The greedy is computed as single-linkage clustering: a union-find adds
// the edges in reverse deletion order, O(E log E) instead of one
// connected-components pass per deleted edge. The output is identical,
// group for group and in order. The greedy freezes a component exactly
// when it deletes the edge that joins it to its sibling in the clustering
// tree, so a merge at edge j that exceeds the bound yields the sides that
// fit, frozen at step j; whole components that fit freeze up front. The
// greedy's component search visits frozen components in order of their
// smallest station, so sorting by (step, smallest member) restores its
// order. Both walk the same weight-sorted edge list, so ties agree too.
#pragma once

#include <vector>

#include "core/ids.h"
#include "core/weighted_adjacency.h"

namespace softmow::topo {

struct InferredGroup {
  std::vector<BsId> members;
};

struct InferenceParams {
  std::size_t max_group_size = 6;  ///< §7.1: "at most 6 inferred base stations"
};

/// Runs the §7.1 greedy inference. Every base station in `graph` (including
/// isolated ones) ends up in exactly one group.
[[nodiscard]] std::vector<InferredGroup> infer_bs_groups(
    const WeightedAdjacency<BsId>& graph, const InferenceParams& params = {});

/// Share of total handover weight that is intra-group under `groups` — the
/// objective the inference maximizes.
[[nodiscard]] double intra_group_weight_fraction(const WeightedAdjacency<BsId>& graph,
                                                 const std::vector<InferredGroup>& groups);

}  // namespace softmow::topo

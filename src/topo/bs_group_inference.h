// BS-group inference (paper §7.1): the dataset has no BS-group structure,
// so groups of at most 6 base stations are inferred from the base-station
// handover graph by a greedy algorithm that maximizes intra-group handover
// weight: repeatedly remove the lowest-weight edge and freeze every
// connected component that has shrunk to <= max_group_size stations.
//
// The greedy is computed offline. Removing edges in ascending weight order
// and adding them back in the reverse order visit the same sequence of
// components, so the edges are walked in reverse removal order and merged
// with a union-find. A frozen group is a component of <= max_group_size
// stations whose next merge makes one larger than that: when edge t joins
// two components whose combined size exceeds the bound, each side within
// the bound is the group the forward greedy freezes at step t (the step
// that removes edge t and splits them apart). Components still within the
// bound once every edge is back are the groups the forward greedy freezes
// before removing any edge. The output keeps the forward order: those
// initial groups first, then by removal step, then by smallest member, with
// members sorted. The removal order comes from the same std::sort, so
// weight ties break the same way. Cost: O(E log E) for the sort plus
// near-linear union-find, instead of a full component pass per removal.
#pragma once

#include <vector>

#include "core/ids.h"
#include "core/weighted_adjacency.h"

namespace softmow::topo {

struct InferredGroup {
  std::vector<BsId> members;

  friend bool operator==(const InferredGroup&, const InferredGroup&) = default;
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

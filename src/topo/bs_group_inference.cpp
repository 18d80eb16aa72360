#include "topo/bs_group_inference.h"

#include <algorithm>
#include <map>
#include <numeric>
#include <utility>

namespace softmow::topo {

std::vector<InferredGroup> infer_bs_groups(const WeightedAdjacency<BsId>& graph,
                                           const InferenceParams& params) {
  // Forward removal order: ascending weight, ties as this std::sort leaves
  // them. The offline pass walks it backwards.
  auto edges = graph.edges();
  std::sort(edges.begin(), edges.end(),
            [](const auto& a, const auto& b) { return a.second < b.second; });

  // Stations as dense indices in ID order, so index order is ID order.
  const std::vector<BsId> nodes(graph.nodes().begin(), graph.nodes().end());
  auto index_of = [&](BsId bs) {
    return static_cast<std::size_t>(std::lower_bound(nodes.begin(), nodes.end(), bs) -
                                    nodes.begin());
  };

  // Union-find by size; `next` links each component's members into a ring.
  std::vector<std::size_t> parent(nodes.size()), next(nodes.size());
  std::vector<std::size_t> size(nodes.size(), 1);
  std::iota(parent.begin(), parent.end(), 0);
  std::iota(next.begin(), next.end(), 0);
  auto find = [&](std::size_t x) {
    while (parent[x] != x) x = parent[x] = parent[parent[x]];
    return x;
  };

  // (forward step, group): step 0 is the pass before any edge is removed,
  // step t + 1 the removal of edges[t].
  std::vector<std::pair<std::size_t, InferredGroup>> frozen;
  auto freeze = [&](std::size_t root, std::size_t step) {
    if (size[root] > params.max_group_size) return;
    std::vector<std::size_t> ring{root};
    for (std::size_t m = next[root]; m != root; m = next[m]) ring.push_back(m);
    std::sort(ring.begin(), ring.end());
    InferredGroup group;
    for (std::size_t m : ring) group.members.push_back(nodes[m]);
    frozen.emplace_back(step, std::move(group));
  };

  for (std::size_t t = edges.size(); t-- > 0;) {
    std::size_t a = find(index_of(edges[t].first.first));
    std::size_t b = find(index_of(edges[t].first.second));
    if (a == b) continue;
    if (size[a] + size[b] > params.max_group_size) {
      freeze(a, t + 1);
      freeze(b, t + 1);
    }
    if (size[a] < size[b]) std::swap(a, b);
    parent[b] = a;
    size[a] += size[b];
    std::swap(next[a], next[b]);  // splice the two rings
  }
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (parent[i] == i) freeze(i, 0);
  }

  std::sort(frozen.begin(), frozen.end(), [](const auto& x, const auto& y) {
    if (x.first != y.first) return x.first < y.first;
    return x.second.members.front() < y.second.members.front();
  });
  std::vector<InferredGroup> groups;
  groups.reserve(frozen.size());
  for (auto& [step, group] : frozen) groups.push_back(std::move(group));
  return groups;
}

double intra_group_weight_fraction(const WeightedAdjacency<BsId>& graph,
                                   const std::vector<InferredGroup>& groups) {
  double total = graph.total_weight();
  if (total <= 0) return 1.0;
  std::map<BsId, std::size_t> group_of;
  for (std::size_t i = 0; i < groups.size(); ++i) {
    for (BsId bs : groups[i].members) group_of[bs] = i;
  }
  double intra = 0;
  for (const auto& [key, w] : graph.edges()) {
    auto a = group_of.find(key.first);
    auto b = group_of.find(key.second);
    if (a != group_of.end() && b != group_of.end() && a->second == b->second) intra += w;
  }
  return intra / total;
}

}  // namespace softmow::topo

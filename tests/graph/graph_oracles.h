#ifndef COANE_TESTS_GRAPH_GRAPH_ORACLES_H_
#define COANE_TESTS_GRAPH_GRAPH_ORACLES_H_

#include <algorithm>

#include "graph/graph.h"

namespace coane {

/// Weight of the undirected edge {u, v}; 0 when absent. A test-side
/// lookup over the sorted adjacency, the same search Graph::HasEdge does.
inline float EdgeWeight(const Graph& g, NodeId u, NodeId v) {
  auto nbrs = g.Neighbors(u);
  auto it = std::lower_bound(
      nbrs.begin(), nbrs.end(), v,
      [](const NeighborEntry& e, NodeId node) { return e.node < node; });
  if (it != nbrs.end() && it->node == v) return it->weight;
  return 0.0f;
}

}  // namespace coane

#endif  // COANE_TESTS_GRAPH_GRAPH_ORACLES_H_

#include "graph/graph.h"

#include <algorithm>

namespace coane {

double Graph::WeightedDegree(NodeId v) const {
  double sum = 0.0;
  for (const NeighborEntry& e : Neighbors(v)) sum += e.weight;
  return sum;
}

bool Graph::HasEdge(NodeId u, NodeId v) const {
  auto nbrs = Neighbors(u);
  auto it = std::lower_bound(
      nbrs.begin(), nbrs.end(), v,
      [](const NeighborEntry& e, NodeId node) { return e.node < node; });
  return it != nbrs.end() && it->node == v;
}

double Graph::Density() const {
  if (num_nodes_ < 2) return 0.0;
  const double possible =
      static_cast<double>(num_nodes_) * (num_nodes_ - 1) / 2.0;
  return static_cast<double>(num_edges_) / possible;
}

std::vector<Edge> Graph::UndirectedEdges() const {
  std::vector<Edge> edges;
  edges.reserve(static_cast<size_t>(num_edges_));
  for (NodeId u = 0; u < num_nodes_; ++u) {
    for (const NeighborEntry& e : Neighbors(u)) {
      if (u < e.node) edges.push_back({u, e.node, e.weight});
    }
  }
  return edges;
}

}  // namespace coane

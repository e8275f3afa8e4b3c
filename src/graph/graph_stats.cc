#include "graph/graph_stats.h"

#include <algorithm>
#include <vector>

namespace coane {

GraphStats ComputeGraphStats(const Graph& graph) {
  GraphStats s;
  s.num_nodes = graph.num_nodes();
  s.num_edges = graph.num_edges();
  s.num_attributes = graph.num_attributes();
  s.num_labels = graph.num_classes();
  s.density = graph.Density();
  int64_t attr_nnz = 0;
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    const int64_t deg = graph.Degree(v);
    s.max_degree = std::max(s.max_degree, deg);
    if (deg == 0) ++s.num_isolated;
    if (graph.num_attributes() > 0) {
      attr_nnz += graph.attributes().RowNnz(v);
    }
  }
  if (s.num_nodes > 0) {
    s.avg_degree =
        2.0 * static_cast<double>(s.num_edges) / s.num_nodes;
    s.avg_attributes_per_node =
        static_cast<double>(attr_nnz) / s.num_nodes;
  }
  if (!graph.labels().empty() && s.num_edges > 0) {
    int64_t same = 0;
    for (const Edge& e : graph.UndirectedEdges()) {
      if (graph.labels()[static_cast<size_t>(e.src)] ==
          graph.labels()[static_cast<size_t>(e.dst)]) {
        ++same;
      }
    }
    s.label_homophily = static_cast<double>(same) / s.num_edges;
  }
  return s;
}

double GlobalClusteringCoefficient(const Graph& graph) {
  int64_t wedges = 0;
  int64_t closed = 0;  // each triangle is counted 6 times as closed wedges
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    auto nbrs = graph.Neighbors(v);
    const int64_t d = static_cast<int64_t>(nbrs.size());
    wedges += d * (d - 1) / 2;
    for (size_t i = 0; i < nbrs.size(); ++i) {
      for (size_t j = i + 1; j < nbrs.size(); ++j) {
        if (graph.HasEdge(nbrs[i].node, nbrs[j].node)) ++closed;
      }
    }
  }
  if (wedges == 0) return 0.0;
  return static_cast<double>(closed) / static_cast<double>(wedges);
}

int64_t CountConnectedComponents(const Graph& graph) {
  const int64_t n = graph.num_nodes();
  std::vector<bool> visited(static_cast<size_t>(n), false);
  std::vector<NodeId> stack;
  int64_t components = 0;
  for (NodeId start = 0; start < n; ++start) {
    if (visited[static_cast<size_t>(start)]) continue;
    ++components;
    stack.push_back(start);
    visited[static_cast<size_t>(start)] = true;
    while (!stack.empty()) {
      NodeId v = stack.back();
      stack.pop_back();
      for (const NeighborEntry& e : graph.Neighbors(v)) {
        if (!visited[static_cast<size_t>(e.node)]) {
          visited[static_cast<size_t>(e.node)] = true;
          stack.push_back(e.node);
        }
      }
    }
  }
  return components;
}

}  // namespace coane

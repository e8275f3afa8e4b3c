#ifndef COANE_GRAPH_GRAPH_STATS_H_
#define COANE_GRAPH_GRAPH_STATS_H_

#include <string>
#include <vector>

#include "graph/graph.h"

namespace coane {

/// Summary statistics of an attributed graph — the columns of the paper's
/// Table 1 plus a few extras used in analyses.
struct GraphStats {
  int64_t num_nodes = 0;
  int64_t num_edges = 0;
  int64_t num_attributes = 0;
  int num_labels = 0;
  double density = 0.0;
  double avg_degree = 0.0;
  int64_t max_degree = 0;
  int64_t num_isolated = 0;
  double avg_attributes_per_node = 0.0;
  /// Fraction of edges whose endpoints share a label (homophily); -1 when
  /// the graph is unlabeled.
  double label_homophily = -1.0;
};

/// Computes all statistics in one pass over the graph.
GraphStats ComputeGraphStats(const Graph& graph);

/// Global clustering coefficient (3 * triangles / wedges); O(sum deg^2).
double GlobalClusteringCoefficient(const Graph& graph);

/// Number of connected components.
int64_t CountConnectedComponents(const Graph& graph);

}  // namespace coane

#endif  // COANE_GRAPH_GRAPH_STATS_H_

#ifndef COANE_GRAPH_EDGE_SPLIT_H_
#define COANE_GRAPH_EDGE_SPLIT_H_

#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "graph/graph.h"

namespace coane {

/// A link-prediction split in the paper's protocol (Sec. 4.2): 70/10/20% of
/// edges as train/validation/test positives, an equal number of non-edges as
/// negatives (disjoint across the three sets), and a residual training graph
/// containing only the training edges.
struct LinkSplit {
  Graph train_graph;
  std::vector<std::pair<NodeId, NodeId>> train_pos, val_pos, test_pos;
  std::vector<std::pair<NodeId, NodeId>> train_neg, val_neg, test_neg;
};

/// Options for SplitEdges. Fractions must be positive and sum to <= 1; the
/// train fraction receives the remainder.
struct EdgeSplitOptions {
  double val_fraction = 0.1;
  double test_fraction = 0.2;
};

/// Splits `graph`'s edges for link prediction. A random spanning forest of
/// the graph is always forced into the training set, so no node is
/// isolated during embedding training (standard practice for
/// link-prediction evaluation on sparse graphs). The residual train graph
/// keeps the original attributes and labels.
Result<LinkSplit> SplitEdges(const Graph& graph,
                             const EdgeSplitOptions& options, Rng* rng);

/// Samples `count` distinct non-edges (u < v, {u,v} not in `graph`), also
/// avoiding any pair present in `exclude`. Fails if the graph is too dense
/// for the request.
Result<std::vector<std::pair<NodeId, NodeId>>> SampleNegativeEdges(
    const Graph& graph, int64_t count,
    const std::vector<std::pair<NodeId, NodeId>>& exclude, Rng* rng);

}  // namespace coane

#endif  // COANE_GRAPH_EDGE_SPLIT_H_

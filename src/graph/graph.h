#ifndef COANE_GRAPH_GRAPH_H_
#define COANE_GRAPH_GRAPH_H_

#include <cstdint>
#include <span>
#include <vector>

#include "la/sparse_matrix.h"

namespace coane {

/// Node identifier. Graphs are indexed densely: ids are 0..n-1.
using NodeId = int32_t;

/// One weighted undirected edge (stored once with src < dst by convention in
/// edge lists; the CSR adjacency stores both directions).
struct Edge {
  NodeId src = 0;
  NodeId dst = 0;
  float weight = 1.0f;
};

inline bool operator==(const Edge& a, const Edge& b) {
  return a.src == b.src && a.dst == b.dst && a.weight == b.weight;
}

/// One adjacency entry: a neighbor and the connecting edge's weight.
struct NeighborEntry {
  NodeId node;
  float weight;
};

/// One explicitly-missing attribute cell: node `node` has no observation
/// for attribute `col` (as opposed to an observed zero). Produced by the
/// loader for `nan` / empty-trailing-cell attribute entries.
struct MissingAttrCell {
  NodeId node = 0;
  int64_t col = 0;
};

inline bool operator==(const MissingAttrCell& a, const MissingAttrCell& b) {
  return a.node == b.node && a.col == b.col;
}

/// An immutable attributed network G = (V, E, X): weighted undirected CSR
/// adjacency, a sparse node-attribute matrix X (n x d), and optional class
/// labels. Instances are created through GraphBuilder. Copyable value type.
class Graph {
 public:
  Graph() = default;

  int64_t num_nodes() const { return num_nodes_; }
  /// Number of undirected edges (each counted once).
  int64_t num_edges() const { return num_edges_; }
  /// Attribute dimensionality d (0 when the graph has no attributes).
  int64_t num_attributes() const { return attributes_.cols(); }
  /// Number of distinct class labels (0 when unlabeled).
  int num_classes() const { return num_classes_; }

  /// Neighbors of v with edge weights, sorted by neighbor id.
  std::span<const NeighborEntry> Neighbors(NodeId v) const {
    return {adj_.data() + adj_ptr_[static_cast<size_t>(v)],
            static_cast<size_t>(adj_ptr_[static_cast<size_t>(v) + 1] -
                                adj_ptr_[static_cast<size_t>(v)])};
  }

  /// Unweighted degree of v.
  int64_t Degree(NodeId v) const {
    return adj_ptr_[static_cast<size_t>(v) + 1] -
           adj_ptr_[static_cast<size_t>(v)];
  }

  /// Sum of incident edge weights of v.
  double WeightedDegree(NodeId v) const;

  /// True when the undirected edge {u, v} exists. O(log deg(u)).
  bool HasEdge(NodeId u, NodeId v) const;

  /// Sparse n x d attribute matrix X. Empty (0 cols) if not set.
  const SparseMatrix& attributes() const { return attributes_; }

  /// Per-node attribute observation flags (1 = the node's attribute row was
  /// observed, 0 = the whole row is missing). Empty means every node is
  /// observed — the representation of a complete network, and what every
  /// pre-mask workflow sees.
  const std::vector<uint8_t>& attr_observed() const { return attr_observed_; }

  /// True when node v's attribute row was observed (always true for graphs
  /// without a mask).
  bool AttrObserved(NodeId v) const {
    return attr_observed_.empty() ||
           attr_observed_[static_cast<size_t>(v)] != 0;
  }

  /// Explicitly-missing cells of otherwise-observed nodes, sorted by
  /// (node, col) and deduplicated. Cells of fully-unobserved nodes are not
  /// expanded here — the node mask already covers them.
  const std::vector<MissingAttrCell>& missing_attr_cells() const {
    return missing_attr_cells_;
  }

  /// True when any attribute observation is missing (a node or a cell).
  /// Complete graphs answer false and skip the imputation stage entirely.
  bool has_missing_attrs() const {
    if (!missing_attr_cells_.empty()) return true;
    for (const uint8_t o : attr_observed_) {
      if (o == 0) return true;
    }
    return false;
  }

  /// Number of nodes whose whole attribute row is unobserved.
  int64_t num_unobserved_nodes() const {
    int64_t count = 0;
    for (const uint8_t o : attr_observed_) count += (o == 0) ? 1 : 0;
    return count;
  }

  /// Class label per node in [0, num_classes); empty if unlabeled.
  const std::vector<int32_t>& labels() const { return labels_; }

  /// Edge density: num_edges / (n*(n-1)/2). This is the "density" column of
  /// Table 1.
  double Density() const;

  /// All undirected edges, each once, with src < dst.
  std::vector<Edge> UndirectedEdges() const;

 private:
  friend class GraphBuilder;

  int64_t num_nodes_ = 0;
  int64_t num_edges_ = 0;
  int num_classes_ = 0;
  std::vector<int64_t> adj_ptr_;       // size num_nodes_ + 1
  std::vector<NeighborEntry> adj_;     // both directions, sorted per row
  SparseMatrix attributes_;
  std::vector<uint8_t> attr_observed_;            // empty = all observed
  std::vector<MissingAttrCell> missing_attr_cells_;  // sorted, deduped
  std::vector<int32_t> labels_;
};

}  // namespace coane

#endif  // COANE_GRAPH_GRAPH_H_

#include "core/inductive.h"

#include <string>

#include "la/vector_ops.h"
#include "walk/random_walk.h"

namespace coane {
namespace {

// One weighted random-walk step from v; an isolated v ends the arm.
NodeId Step(const Graph& graph, NodeId v, Rng* rng) {
  return graph.Degree(v) == 0 ? kPaddingNode : RandomWalkStep(graph, v, rng);
}

}  // namespace

Result<std::vector<float>> EncodeUnseenNode(const CoaneModel& model,
                                            const Graph& graph,
                                            const UnseenNode& node,
                                            const InductiveOptions& options,
                                            Rng* rng) {
  if (node.neighbors.empty()) {
    return Status::InvalidArgument(
        "unseen node needs at least one trained neighbor");
  }
  if (options.num_contexts < 1) {
    return Status::InvalidArgument("num_contexts must be positive");
  }
  const SparseMatrix& features = model.features();
  for (NodeId v : node.neighbors) {
    if (v < 0 || v >= graph.num_nodes()) {
      return Status::OutOfRange("neighbor id " + std::to_string(v) +
                                " out of range");
    }
  }
  for (const SparseEntry& e : node.attributes) {
    if (e.col < 0 || e.col >= features.cols()) {
      return Status::OutOfRange("attribute index " + std::to_string(e.col) +
                                " out of range");
    }
  }

  const ContextEncoder& enc = model.encoder();
  const int c = enc.context_size();
  const int center = (c - 1) / 2;
  const int64_t dim = enc.output_dim();
  std::vector<float> z(static_cast<size_t>(dim), 0.0f);

  // Adds x_u . W_p into z (x from the trained feature matrix, or the new
  // node's inline attributes when u is the center).
  auto accumulate = [&](int p, NodeId u, bool is_new) {
    const DenseMatrix& w = enc.PositionWeights(p);
    if (is_new) {
      for (const SparseEntry& e : node.attributes) {
        Axpy(e.value, w.Row(e.col), z.data(), dim);
      }
    } else {
      for (const SparseEntry& e : features.Row(u)) {
        Axpy(e.value, w.Row(e.col), z.data(), dim);
      }
    }
  };

  // Synthesize windows centered on the new node: each arm starts at a
  // uniformly chosen neighbor and continues as a weighted walk.
  std::vector<NodeId> window(static_cast<size_t>(c));
  for (int k = 0; k < options.num_contexts; ++k) {
    // Left arm (walking outward from the center).
    NodeId cur = node.neighbors[static_cast<size_t>(
        rng->UniformInt(static_cast<int64_t>(node.neighbors.size())))];
    for (int p = center - 1; p >= 0; --p) {
      window[static_cast<size_t>(p)] = cur;
      if (cur != kPaddingNode) cur = Step(graph, cur, rng);
    }
    window[static_cast<size_t>(center)] = kPaddingNode;  // the new node
    // Right arm.
    cur = node.neighbors[static_cast<size_t>(
        rng->UniformInt(static_cast<int64_t>(node.neighbors.size())))];
    for (int p = center + 1; p < c; ++p) {
      window[static_cast<size_t>(p)] = cur;
      if (cur != kPaddingNode) cur = Step(graph, cur, rng);
    }
    // Accumulate the convolution for this window.
    for (int p = 0; p < c; ++p) {
      if (p == center) {
        accumulate(p, /*u=*/0, /*is_new=*/true);
      } else if (window[static_cast<size_t>(p)] != kPaddingNode) {
        accumulate(p, window[static_cast<size_t>(p)], /*is_new=*/false);
      }
    }
  }
  const float inv = 1.0f / static_cast<float>(options.num_contexts);
  for (float& v : z) v *= inv;
  return z;
}

}  // namespace coane

#include "baselines/graphsage.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/rng.h"
#include "la/sparse_matrix.h"
#include "la/vector_ops.h"
#include "nn/adam.h"
#include "walk/random_walk.h"

namespace coane {
namespace {

// Row-normalized adjacency (mean aggregation), plus its transpose for the
// backward pass (it is not symmetric).
void BuildMeanAdjacency(const Graph& graph, SparseMatrix* a,
                        SparseMatrix* a_t) {
  std::vector<SparseMatrix::Triplet> fwd, bwd;
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    const double total = graph.WeightedDegree(v);
    if (total <= 0.0) continue;
    for (const NeighborEntry& e : graph.Neighbors(v)) {
      const float w = static_cast<float>(e.weight / total);
      fwd.push_back({v, e.node, w});
      bwd.push_back({e.node, v, w});
    }
  }
  *a = SparseMatrix::FromTriplets(graph.num_nodes(), graph.num_nodes(),
                                  std::move(fwd));
  *a_t = SparseMatrix::FromTriplets(graph.num_nodes(), graph.num_nodes(),
                                    std::move(bwd));
}

// dW += X^T G with sparse X.
void AccumulateSparseTranspose(const SparseMatrix& x, const DenseMatrix& g,
                               DenseMatrix* dw) {
  for (int64_t v = 0; v < x.rows(); ++v) {
    const float* g_row = g.Row(v);
    for (const SparseEntry& e : x.Row(v)) {
      Axpy(e.value, g_row, dw->Row(e.col), g.cols());
    }
  }
}

}  // namespace

Result<DenseMatrix> TrainGraphSage(const Graph& graph,
                                   const GraphSageConfig& config) {
  if (config.hidden_dim < 1 || config.embedding_dim < 1) {
    return Status::InvalidArgument("dims must be positive");
  }
  if (graph.num_attributes() == 0) {
    return Status::FailedPrecondition("GraphSAGE needs node attributes");
  }
  if (graph.num_edges() == 0) {
    return Status::FailedPrecondition("GraphSAGE needs edges");
  }
  Rng rng(config.seed);
  const int64_t n = graph.num_nodes();
  const SparseMatrix& x = graph.attributes();
  SparseMatrix a, a_t;
  BuildMeanAdjacency(graph, &a, &a_t);

  // The concat weights [W_self ; W_neigh] are kept as two matrices so the
  // sparse X never needs densifying:
  //   pre1 = X W1s + A (X W1n)
  //   z    = H1 W2s + A H1 W2n,  H1 = ReLU(pre1)
  DenseMatrix w1_self(x.cols(), config.hidden_dim);
  DenseMatrix w1_neigh(x.cols(), config.hidden_dim);
  DenseMatrix w2_self(config.hidden_dim, config.embedding_dim);
  DenseMatrix w2_neigh(config.hidden_dim, config.embedding_dim);
  w1_self.XavierInit(&rng, 2 * x.cols(), config.hidden_dim);
  w1_neigh.XavierInit(&rng, 2 * x.cols(), config.hidden_dim);
  w2_self.XavierInit(&rng, 2 * config.hidden_dim, config.embedding_dim);
  w2_neigh.XavierInit(&rng, 2 * config.hidden_dim, config.embedding_dim);

  AdamConfig adam_cfg;
  adam_cfg.learning_rate = config.learning_rate;
  AdamOptimizer opt(adam_cfg);
  const int s1 = opt.Register(&w1_self);
  const int s2 = opt.Register(&w1_neigh);
  const int s3 = opt.Register(&w2_self);
  const int s4 = opt.Register(&w2_neigh);

  std::vector<double> noise(static_cast<size_t>(n));
  for (NodeId v = 0; v < n; ++v) {
    noise[static_cast<size_t>(v)] =
        std::pow(graph.WeightedDegree(v) + 1e-6, 0.75);
  }
  AliasTable noise_table(noise);

  DenseMatrix z;
  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    // ---- Forward (full batch).
    DenseMatrix pre1 = x.MatMulDense(w1_self);
    pre1.Axpy(1.0f, a.MatMulDense(x.MatMulDense(w1_neigh)));
    DenseMatrix h1 = pre1;
    for (int64_t i = 0; i < h1.size(); ++i) {
      if (h1.data()[i] < 0.0f) h1.data()[i] = 0.0f;
    }
    z = h1.MatMul(w2_self);
    DenseMatrix ah1 = a.MatMulDense(h1);
    z.Axpy(1.0f, ah1.MatMul(w2_neigh));

    // ---- Unsupervised graph loss on walk-co-visited pairs.
    DenseMatrix dz(n, config.embedding_dim, 0.0f);
    RandomWalkConfig wcfg;
    wcfg.num_walks_per_node = 1;
    wcfg.walk_length = config.walk_length;
    auto walks = GenerateRandomWalks(graph, wcfg, &rng);
    if (!walks.ok()) return walks.status();
    auto pair_update = [&](NodeId u, NodeId v, float label) {
      const float s = Dot(z.Row(u), z.Row(v), config.embedding_dim);
      const float g = Sigmoid(s) - label;
      Axpy(g, z.Row(v), dz.Row(u), config.embedding_dim);
      Axpy(g, z.Row(u), dz.Row(v), config.embedding_dim);
    };
    for (const Walk& walk : walks.value()) {
      for (int p = 0;
           p < std::min<int>(config.pairs_per_node,
                             static_cast<int>(walk.size()) - 1);
           ++p) {
        const NodeId u = walk[0];
        const NodeId v = walk[static_cast<size_t>(p + 1)];
        if (u == v) continue;
        pair_update(u, v, 1.0f);
        for (int k = 0; k < config.negatives_per_pair; ++k) {
          const NodeId neg = static_cast<NodeId>(noise_table.Sample(&rng));
          if (neg == u || neg == v) continue;
          pair_update(u, neg, 0.0f);
        }
      }
    }
    dz.Scale(1.0f / static_cast<float>(n));

    // ---- Backward.
    // z = H1 W2s + (A H1) W2n.
    DenseMatrix dw2_self = h1.TransposedMatMul(dz);
    DenseMatrix dw2_neigh = ah1.TransposedMatMul(dz);
    DenseMatrix dh1 = dz.MatMulTransposed(w2_self);
    dh1.Axpy(1.0f, a_t.MatMulDense(dz).MatMulTransposed(w2_neigh));
    for (int64_t i = 0; i < dh1.size(); ++i) {
      if (pre1.data()[i] <= 0.0f) dh1.data()[i] = 0.0f;
    }
    // pre1 = X W1s + A (X W1n).
    DenseMatrix dw1_self(x.cols(), config.hidden_dim, 0.0f);
    AccumulateSparseTranspose(x, dh1, &dw1_self);
    DenseMatrix dw1_neigh(x.cols(), config.hidden_dim, 0.0f);
    AccumulateSparseTranspose(x, a_t.MatMulDense(dh1), &dw1_neigh);

    opt.Step(s1, dw1_self);
    opt.Step(s2, dw1_neigh);
    opt.Step(s3, dw2_self);
    opt.Step(s4, dw2_neigh);
  }
  return z;
}

}  // namespace coane

#include "baselines/gae.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "common/stopwatch.h"
#include "la/vector_ops.h"
#include "nn/adam.h"
#include "nn/mlp.h"

namespace coane {

SparseMatrix NormalizedAdjacency(const Graph& graph) {
  const int64_t n = graph.num_nodes();
  std::vector<double> inv_sqrt_deg(static_cast<size_t>(n));
  for (NodeId v = 0; v < n; ++v) {
    // Self-loop adds 1 to the weighted degree.
    inv_sqrt_deg[static_cast<size_t>(v)] =
        1.0 / std::sqrt(graph.WeightedDegree(v) + 1.0);
  }
  std::vector<SparseMatrix::Triplet> triplets;
  for (NodeId v = 0; v < n; ++v) {
    triplets.push_back(
        {v, v,
         static_cast<float>(inv_sqrt_deg[static_cast<size_t>(v)] *
                            inv_sqrt_deg[static_cast<size_t>(v)])});
    for (const NeighborEntry& e : graph.Neighbors(v)) {
      triplets.push_back(
          {v, e.node,
           static_cast<float>(e.weight *
                              inv_sqrt_deg[static_cast<size_t>(v)] *
                              inv_sqrt_deg[static_cast<size_t>(e.node)])});
    }
  }
  return SparseMatrix::FromTriplets(n, n, std::move(triplets));
}

namespace {

// dW += X^T G where X is sparse (n x d) and G dense (n x h).
void AccumulateSparseTransposeMatMul(const SparseMatrix& x,
                                     const DenseMatrix& g, DenseMatrix* dw) {
  for (int64_t v = 0; v < x.rows(); ++v) {
    const float* g_row = g.Row(v);
    for (const SparseEntry& e : x.Row(v)) {
      Axpy(e.value, g_row, dw->Row(e.col), g.cols());
    }
  }
}

}  // namespace

Result<DenseMatrix> TrainGae(const Graph& graph, const GaeConfig& config,
                             std::vector<GaeEpochStats>* history) {
  if (config.hidden_dim < 1 || config.embedding_dim < 1) {
    return Status::InvalidArgument("dims must be positive");
  }
  if (graph.num_attributes() == 0) {
    return Status::FailedPrecondition("GAE needs node attributes");
  }
  if (graph.num_edges() == 0) {
    return Status::FailedPrecondition("GAE needs edges to reconstruct");
  }
  Rng rng(config.seed);
  const int64_t n = graph.num_nodes();
  const SparseMatrix& x = graph.attributes();
  const SparseMatrix a_hat = NormalizedAdjacency(graph);
  const std::vector<Edge> edges = graph.UndirectedEdges();

  DenseMatrix w0(x.cols(), config.hidden_dim);
  w0.XavierInit(&rng);
  DenseMatrix w1(config.hidden_dim, config.embedding_dim);
  w1.XavierInit(&rng);
  // Variational: a second head for log-variance.
  DenseMatrix w1_logvar(config.hidden_dim,
                        config.variational ? config.embedding_dim : 0);
  if (config.variational) w1_logvar.XavierInit(&rng);

  AdamConfig adam_cfg;
  adam_cfg.learning_rate = config.learning_rate;
  AdamOptimizer opt(adam_cfg);
  const int w0_slot = opt.Register(&w0);
  const int w1_slot = opt.Register(&w1);
  const int w1lv_slot = config.variational ? opt.Register(&w1_logvar) : -1;

  // Adversarial regularizer: a small MLP discriminator with its own
  // optimizer, emitting one logit per embedding row.
  std::unique_ptr<Mlp> disc;
  AdamOptimizer disc_opt(adam_cfg);
  if (config.adversarial) {
    disc = std::make_unique<Mlp>(
        std::vector<int64_t>{config.embedding_dim,
                             config.discriminator_hidden, 1},
        &rng);
    disc->RegisterParams(&disc_opt);
  }

  DenseMatrix mu;  // final embeddings
  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    Stopwatch watch;
    // ---- Forward.
    DenseMatrix xw0 = x.MatMulDense(w0);      // n x h
    DenseMatrix a1 = a_hat.MatMulDense(xw0);  // n x h
    DenseMatrix h1 = a1;
    for (int64_t i = 0; i < h1.size(); ++i) {
      if (h1.data()[i] < 0.0f) h1.data()[i] = 0.0f;
    }
    DenseMatrix h1w1 = h1.MatMul(w1);
    mu = a_hat.MatMulDense(h1w1);  // n x z
    DenseMatrix logvar, z, eps_mat;
    if (config.variational) {
      DenseMatrix h1w1lv = h1.MatMul(w1_logvar);
      logvar = a_hat.MatMulDense(h1w1lv);
      // A fixed -2 offset starts training at small sampling noise
      // (sigma ~ 0.37) so the reconstruction signal is not swamped before
      // the encoder has learned anything; clamp for numeric safety.
      for (int64_t i = 0; i < logvar.size(); ++i) {
        logvar.data()[i] =
            std::clamp(logvar.data()[i] - 2.0f, -5.0f, 5.0f);
      }
      eps_mat = DenseMatrix(n, config.embedding_dim);
      eps_mat.GaussianInit(&rng, 0.0f, 1.0f);
      z = mu;
      for (int64_t i = 0; i < z.size(); ++i) {
        z.data()[i] +=
            eps_mat.data()[i] * std::exp(0.5f * logvar.data()[i]);
      }
    } else {
      z = mu;
    }

    // ---- Reconstruction loss on positives + sampled negatives.
    DenseMatrix dz(n, config.embedding_dim, 0.0f);
    double loss = 0.0;
    int64_t terms = 0;
    auto bce_pair = [&](NodeId u, NodeId v, float label) {
      const float s = Dot(z.Row(u), z.Row(v), config.embedding_dim);
      const float p = Sigmoid(s);
      loss -= label > 0.5f ? LogSigmoid(s) : LogSigmoid(-s);
      const float g = p - label;  // dL/ds
      Axpy(g, z.Row(v), dz.Row(u), config.embedding_dim);
      Axpy(g, z.Row(u), dz.Row(v), config.embedding_dim);
      ++terms;
    };
    for (const Edge& e : edges) {
      bce_pair(e.src, e.dst, 1.0f);
      for (int k = 0; k < config.neg_per_pos; ++k) {
        const NodeId u = static_cast<NodeId>(rng.UniformInt(n));
        const NodeId v = static_cast<NodeId>(rng.UniformInt(n));
        if (u == v || graph.HasEdge(u, v)) continue;
        bce_pair(u, v, 0.0f);
      }
    }
    if (terms > 0) {
      loss /= static_cast<double>(terms);
      dz.Scale(1.0f / static_cast<float>(terms));
    }

    // ---- Adversarial regularization (ARGA/ARVGA).
    if (config.adversarial) {
      const float inv_n = 1.0f / static_cast<float>(n);
      // (1) Discriminator step: prior samples labeled 1, embeddings 0.
      disc->ZeroGrad();
      DenseMatrix prior(n, config.embedding_dim);
      prior.GaussianInit(&rng, 0.0f, 1.0f);
      DenseMatrix real_logits = disc->Forward(prior);
      DenseMatrix d_real(n, 1, 0.0f);
      for (int64_t i = 0; i < n; ++i) {
        d_real.At(i, 0) = (Sigmoid(real_logits.At(i, 0)) - 1.0f) * inv_n;
      }
      disc->Backward(d_real);
      DenseMatrix fake_logits = disc->Forward(z);
      DenseMatrix d_fake(n, 1, 0.0f);
      for (int64_t i = 0; i < n; ++i) {
        d_fake.At(i, 0) = Sigmoid(fake_logits.At(i, 0)) * inv_n;
      }
      disc->Backward(d_fake);
      disc->ApplyGrad(&disc_opt);
      // (2) Generator gradient: encoder fools the discriminator,
      // minimizing -log D(z); only the input gradient is used.
      disc->ZeroGrad();
      DenseMatrix gen_logits = disc->Forward(z);
      DenseMatrix d_gen(n, 1, 0.0f);
      double adv_loss = 0.0;
      for (int64_t i = 0; i < n; ++i) {
        const float logit = gen_logits.At(i, 0);
        adv_loss -= LogSigmoid(logit) * inv_n;
        d_gen.At(i, 0) =
            -(1.0f - Sigmoid(logit)) * config.adversarial_weight * inv_n;
      }
      dz.Axpy(1.0f, disc->Backward(d_gen));
      loss += config.adversarial_weight * adv_loss;
    }

    // ---- Variational extras: KL and reparameterization gradients.
    DenseMatrix dmu = dz;
    DenseMatrix dlogvar;
    if (config.variational) {
      dlogvar = DenseMatrix(n, config.embedding_dim, 0.0f);
      const float kl_scale = 1.0f / static_cast<float>(n);
      double kl = 0.0;
      for (int64_t i = 0; i < mu.size(); ++i) {
        const float m = mu.data()[i];
        const float lv = logvar.data()[i];
        kl += -0.5 * (1.0f + lv - m * m - std::exp(lv));
        // d z / d logvar = 0.5 * eps * exp(0.5 lv).
        dlogvar.data()[i] = dz.data()[i] * eps_mat.data()[i] * 0.5f *
                                std::exp(0.5f * lv) +
                            kl_scale * 0.5f * (std::exp(lv) - 1.0f);
        dmu.data()[i] += kl_scale * m;
      }
      loss += kl / static_cast<double>(n);
    }

    // ---- Backward through the GCN.
    // mu = A_hat (h1 w1); A_hat symmetric => d(h1 w1) = A_hat dmu.
    DenseMatrix d_h1w1 = a_hat.MatMulDense(dmu);
    DenseMatrix dw1 = h1.TransposedMatMul(d_h1w1);
    DenseMatrix dh1 = d_h1w1.MatMulTransposed(w1);
    if (config.variational) {
      DenseMatrix d_h1w1lv = a_hat.MatMulDense(dlogvar);
      DenseMatrix dw1lv = h1.TransposedMatMul(d_h1w1lv);
      dh1.Axpy(1.0f, d_h1w1lv.MatMulTransposed(w1_logvar));
      opt.Step(w1lv_slot, dw1lv);
    }
    // ReLU gate.
    for (int64_t i = 0; i < dh1.size(); ++i) {
      if (a1.data()[i] <= 0.0f) dh1.data()[i] = 0.0f;
    }
    // a1 = A_hat (x w0) => d(x w0) = A_hat dh1; dw0 = x^T (A_hat dh1).
    DenseMatrix d_xw0 = a_hat.MatMulDense(dh1);
    DenseMatrix dw0(x.cols(), config.hidden_dim, 0.0f);
    AccumulateSparseTransposeMatMul(x, d_xw0, &dw0);

    opt.Step(w0_slot, dw0);
    opt.Step(w1_slot, dw1);

    if (history != nullptr) {
      history->push_back({epoch + 1, loss, watch.ElapsedSeconds()});
    }
  }
  return mu;
}

}  // namespace coane

#include "core/sequential_objective.h"

#include "common/logging.h"
#include "la/vector_ops.h"

namespace coane {

double PositiveLikelihoodLoss(
    const DenseMatrix& z,
    const std::vector<std::vector<PositivePair>>& pairs,
    const std::vector<NodeId>& batch, const std::vector<uint8_t>& in_batch,
    bool split_lr, DenseMatrix* dz) {
  const int64_t d = z.cols();
  const int64_t half = d / 2;
  COANE_CHECK(!split_lr || d % 2 == 0);
  const int64_t dot_dim = split_lr ? half : d;
  double loss = 0.0;
  for (NodeId i : batch) {
    for (const PositivePair& p : pairs[static_cast<size_t>(i)]) {
      const NodeId j = p.j;
      if (j == i) continue;
      // L_i is the first half of z_i; R_j is the second half of z_j (or the
      // full vectors in skip-gram mode).
      const float* li = z.Row(i);
      const float* rj = split_lr ? z.Row(j) + half : z.Row(j);
      const float s = Dot(li, rj, dot_dim);
      loss -= static_cast<double>(p.weight) * LogSigmoid(s);
      // d/ds [-w log sigma(s)] = -w (1 - sigma(s)).
      const float coeff = -p.weight * (1.0f - Sigmoid(s));
      float* dli = dz->Row(i);
      Axpy(coeff, rj, dli, dot_dim);
      if (in_batch[static_cast<size_t>(j)]) {
        float* drj = split_lr ? dz->Row(j) + half : dz->Row(j);
        Axpy(coeff, li, drj, dot_dim);
      }
    }
  }
  return loss;
}

double ContextualNegativeLoss(const DenseMatrix& z,
                              const std::vector<NodeId>& batch,
                              const std::vector<uint8_t>& in_batch, float a,
                              int k, NegativeSampler* sampler, Rng* rng,
                              DenseMatrix* dz) {
  const int64_t d = z.cols();
  double loss = 0.0;
  for (NodeId i : batch) {
    const std::vector<NodeId> negatives = sampler->Sample(i, k, batch, rng);
    for (NodeId j : negatives) {
      if (j == i) continue;
      const float s = Dot(z.Row(i), z.Row(j), d);
      loss += static_cast<double>(a) * s * s;
      const float coeff = 2.0f * a * s;
      Axpy(coeff, z.Row(j), dz->Row(i), d);
      if (in_batch[static_cast<size_t>(j)]) {
        Axpy(coeff, z.Row(i), dz->Row(j), d);
      }
    }
  }
  return loss;
}

}  // namespace coane

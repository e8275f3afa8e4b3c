// Descent properties of the objective terms: one step against the computed
// gradient must reduce the loss, over a parameterized sweep of random
// initializations — the end-to-end sanity that gradient signs are right.

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/sequential_objective.h"
#include "la/dense_matrix.h"

namespace coane {
namespace {

class DescentTest : public ::testing::TestWithParam<uint64_t> {};

class FixedSampler : public NegativeSampler {
 public:
  explicit FixedSampler(std::vector<NodeId> negs) : negs_(std::move(negs)) {}
  std::vector<NodeId> Sample(NodeId, int k, const std::vector<NodeId>&,
                             Rng*) override {
    return std::vector<NodeId>(
        negs_.begin(),
        negs_.begin() + std::min<size_t>(static_cast<size_t>(k),
                                         negs_.size()));
  }

 private:
  std::vector<NodeId> negs_;
};

TEST_P(DescentTest, PositiveLossDecreasesAlongNegativeGradient) {
  Rng rng(GetParam());
  const int n = 8, d = 6;
  DenseMatrix z(n, d);
  z.GaussianInit(&rng, 0.0f, 0.5f);
  std::vector<std::vector<PositivePair>> pairs(n);
  for (NodeId i = 0; i < n; ++i) {
    for (int p = 0; p < 3; ++p) {
      NodeId j = static_cast<NodeId>(rng.UniformInt(n));
      if (j != i) {
        pairs[static_cast<size_t>(i)].push_back(
            {j, static_cast<float>(rng.Uniform(0.5, 2.0))});
      }
    }
  }
  std::vector<NodeId> batch;
  std::vector<uint8_t> in_batch(n, 1);
  for (NodeId i = 0; i < n; ++i) batch.push_back(i);

  for (bool split : {true, false}) {
    DenseMatrix dz(n, d, 0.0f);
    const double before =
        PositiveLikelihoodLoss(z, pairs, batch, in_batch, split, &dz);
    DenseMatrix stepped = z;
    stepped.Axpy(-0.01f, dz);
    DenseMatrix scratch(n, d, 0.0f);
    const double after = PositiveLikelihoodLoss(stepped, pairs, batch,
                                                in_batch, split, &scratch);
    EXPECT_LT(after, before) << "split=" << split;
  }
}

TEST_P(DescentTest, NegativeLossDecreasesAlongNegativeGradient) {
  Rng rng(GetParam() + 100);
  const int n = 8, d = 6;
  DenseMatrix z(n, d);
  z.GaussianInit(&rng, 0.0f, 1.0f);
  FixedSampler sampler({5, 6, 7});
  std::vector<NodeId> batch = {0, 1, 2};
  std::vector<uint8_t> in_batch(n, 0);
  for (NodeId i : batch) in_batch[static_cast<size_t>(i)] = 1;

  DenseMatrix dz(n, d, 0.0f);
  Rng loss_rng(1);
  const double before = ContextualNegativeLoss(z, batch, in_batch, 0.1f, 3,
                                               &sampler, &loss_rng, &dz);
  DenseMatrix stepped = z;
  stepped.Axpy(-0.05f, dz);
  DenseMatrix scratch(n, d, 0.0f);
  Rng loss_rng2(1);
  const double after = ContextualNegativeLoss(
      stepped, batch, in_batch, 0.1f, 3, &sampler, &loss_rng2, &scratch);
  EXPECT_LT(after, before);
}

TEST_P(DescentTest, PositiveLossIsNonNegative) {
  Rng rng(GetParam() + 200);
  const int n = 6, d = 4;
  DenseMatrix z(n, d);
  z.GaussianInit(&rng, 0.0f, 2.0f);
  std::vector<std::vector<PositivePair>> pairs(n);
  pairs[0] = {{1, 1.0f}, {2, 0.3f}};
  pairs[3] = {{4, 2.0f}};
  std::vector<NodeId> batch = {0, 3};
  std::vector<uint8_t> in_batch(n, 0);
  in_batch[0] = in_batch[3] = 1;
  DenseMatrix dz(n, d, 0.0f);
  EXPECT_GE(
      PositiveLikelihoodLoss(z, pairs, batch, in_batch, true, &dz), 0.0)
      << "-w log sigma(s) is always non-negative";
}

INSTANTIATE_TEST_SUITE_P(Seeds, DescentTest,
                         ::testing::Values(1u, 2u, 3u, 4u));

}  // namespace
}  // namespace coane

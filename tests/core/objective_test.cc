#include "core/objective.h"

#include <gtest/gtest.h>

#include <cmath>

#include "core/sequential_objective.h"
#include "la/matrix_oracles.h"
#include "la/vector_ops.h"

namespace coane {
namespace {

// Deterministic sampler returning a fixed list for every target.
class FixedSampler : public NegativeSampler {
 public:
  explicit FixedSampler(std::vector<NodeId> negs) : negs_(std::move(negs)) {}
  std::vector<NodeId> Sample(NodeId, int k, const std::vector<NodeId>&,
                             Rng*) override {
    std::vector<NodeId> out(negs_.begin(),
                            negs_.begin() + std::min<size_t>(
                                                static_cast<size_t>(k),
                                                negs_.size()));
    return out;
  }

 private:
  std::vector<NodeId> negs_;
};

DenseMatrix MakeZ() {
  // 4 nodes, d' = 4 (halves of size 2).
  DenseMatrix z(4, 4);
  float vals[] = {0.5f, -0.2f, 0.1f,  0.4f,   // node 0
                  0.3f, 0.8f,  -0.5f, 0.2f,   // node 1
                  -0.1f, 0.2f, 0.7f,  -0.3f,  // node 2
                  0.9f, -0.4f, 0.2f,  0.6f};  // node 3
  for (int i = 0; i < 16; ++i) z.data()[i] = vals[i];
  return z;
}

TEST(PositiveLikelihoodTest, ValueMatchesClosedForm) {
  DenseMatrix z = MakeZ();
  std::vector<std::vector<PositivePair>> pairs(4);
  pairs[0] = {{1, 2.0f}};
  std::vector<NodeId> batch = {0};
  std::vector<uint8_t> in_batch = {1, 0, 0, 0};
  DenseMatrix dz(4, 4, 0.0f);
  double loss =
      PositiveLikelihoodLoss(z, pairs, batch, in_batch, true, &dz);
  // s = L_0 . R_1 = 0.5*(-0.5) + (-0.2)*0.2 = -0.29.
  const double s = -0.29;
  EXPECT_NEAR(loss, -2.0 * std::log(1.0 / (1.0 + std::exp(-s))), 1e-5);
}

TEST(PositiveLikelihoodTest, GradientMatchesFiniteDifference) {
  std::vector<std::vector<PositivePair>> pairs(4);
  pairs[0] = {{1, 1.5f}, {2, 0.5f}};
  pairs[1] = {{0, 1.0f}};
  std::vector<NodeId> batch = {0, 1};
  std::vector<uint8_t> in_batch = {1, 1, 0, 0};

  for (bool split : {true, false}) {
    DenseMatrix z = MakeZ();
    DenseMatrix dz(4, 4, 0.0f);
    PositiveLikelihoodLoss(z, pairs, batch, in_batch, split, &dz);
    const float eps = 1e-3f;
    for (NodeId v : batch) {
      for (int64_t j = 0; j < 4; ++j) {
        DenseMatrix zp = z, zm = z;
        zp.At(v, j) += eps;
        zm.At(v, j) -= eps;
        DenseMatrix scratch(4, 4, 0.0f);
        const double lp = PositiveLikelihoodLoss(zp, pairs, batch, in_batch,
                                                 split, &scratch);
        scratch.Fill(0.0f);
        const double lm = PositiveLikelihoodLoss(zm, pairs, batch, in_batch,
                                                 split, &scratch);
        const double fd = (lp - lm) / (2.0 * eps);
        EXPECT_NEAR(dz.At(v, j), fd, 5e-3)
            << "split=" << split << " dz[" << v << "," << j << "]";
      }
    }
  }
}

TEST(PositiveLikelihoodTest, OutOfBatchGetsNoGradient) {
  DenseMatrix z = MakeZ();
  std::vector<std::vector<PositivePair>> pairs(4);
  pairs[0] = {{3, 1.0f}};
  std::vector<NodeId> batch = {0};
  std::vector<uint8_t> in_batch = {1, 0, 0, 0};
  DenseMatrix dz(4, 4, 0.0f);
  PositiveLikelihoodLoss(z, pairs, batch, in_batch, true, &dz);
  for (int64_t j = 0; j < 4; ++j) {
    EXPECT_FLOAT_EQ(dz.At(3, j), 0.0f);
  }
  // Node 0's L-half must have gradient; its R-half must not (it appears
  // only as L_i in the split form).
  EXPECT_NE(dz.At(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(dz.At(0, 2), 0.0f);
  EXPECT_FLOAT_EQ(dz.At(0, 3), 0.0f);
}

TEST(ContextualNegativeLossTest, ValueMatchesClosedForm) {
  DenseMatrix z = MakeZ();
  FixedSampler sampler({2});
  std::vector<NodeId> batch = {0};
  std::vector<uint8_t> in_batch = {1, 0, 0, 0};
  DenseMatrix dz(4, 4, 0.0f);
  Rng rng(1);
  const float a = 0.1f;
  double loss = ContextualNegativeLoss(z, batch, in_batch, a, 1, &sampler,
                                       &rng, &dz);
  const double s = Dot(z.Row(0), z.Row(2), 4);
  EXPECT_NEAR(loss, 0.1 * s * s, 1e-6);
}

TEST(ContextualNegativeLossTest, GradientMatchesFiniteDifference) {
  FixedSampler sampler({2, 3});
  std::vector<NodeId> batch = {0, 1};
  std::vector<uint8_t> in_batch = {1, 1, 0, 0};
  Rng rng(2);
  const float a = 0.05f;

  DenseMatrix z = MakeZ();
  DenseMatrix dz(4, 4, 0.0f);
  ContextualNegativeLoss(z, batch, in_batch, a, 2, &sampler, &rng, &dz);
  const float eps = 1e-3f;
  for (NodeId v : batch) {
    for (int64_t j = 0; j < 4; ++j) {
      DenseMatrix zp = z, zm = z;
      zp.At(v, j) += eps;
      zm.At(v, j) -= eps;
      DenseMatrix scratch(4, 4, 0.0f);
      const double lp = ContextualNegativeLoss(zp, batch, in_batch, a, 2,
                                               &sampler, &rng, &scratch);
      scratch.Fill(0.0f);
      const double lm = ContextualNegativeLoss(zm, batch, in_batch, a, 2,
                                               &sampler, &rng, &scratch);
      const double fd = (lp - lm) / (2.0 * eps);
      EXPECT_NEAR(dz.At(v, j), fd, 5e-3) << "dz[" << v << "," << j << "]";
    }
  }
}

TEST(ContextualNegativeLossTest, InBatchNegativeReceivesGradient) {
  DenseMatrix z = MakeZ();
  FixedSampler sampler({1});
  std::vector<NodeId> batch = {0, 1};
  std::vector<uint8_t> in_batch = {1, 1, 0, 0};
  DenseMatrix dz(4, 4, 0.0f);
  Rng rng(3);
  ContextualNegativeLoss(z, batch, in_batch, 0.1f, 1, &sampler, &rng, &dz);
  bool node1_has_grad = false;
  for (int64_t j = 0; j < 4; ++j) {
    if (dz.At(1, j) != 0.0f) node1_has_grad = true;
  }
  EXPECT_TRUE(node1_has_grad);
}

TEST(ContextualNegativeLossTest, SelfPairSkipped) {
  DenseMatrix z = MakeZ();
  FixedSampler sampler({0});  // degenerate: proposes the target itself
  std::vector<NodeId> batch = {0};
  std::vector<uint8_t> in_batch = {1, 0, 0, 0};
  DenseMatrix dz(4, 4, 0.0f);
  Rng rng(4);
  double loss = ContextualNegativeLoss(z, batch, in_batch, 0.1f, 1, &sampler,
                                       &rng, &dz);
  EXPECT_DOUBLE_EQ(loss, 0.0);
  EXPECT_DOUBLE_EQ(FrobeniusNorm(dz), 0.0);
}

// ParallelBatchObjective against its sequential oracles: the same losses
// and the same dL/dZ, up to the reordering of the sums that the
// shard-buffer fold introduces, with in-batch and out-of-batch partners
// on both terms and a self pair that both must skip.
TEST(ParallelBatchObjectiveTest, MatchesSequentialOracles) {
  const NodeId n = 10;
  const int64_t d = 6;
  DenseMatrix z(n, d);
  Rng init(17);
  z.GaussianInit(&init, 0.0f, 0.5f);
  std::vector<std::vector<PositivePair>> pairs(n);
  std::vector<std::vector<NodeId>> negatives_of(n);
  for (NodeId i = 0; i < n; ++i) {
    pairs[i] = {{(i + 1) % n, 1.5f}, {(i + 4) % n, 0.5f}, {i, 1.0f}};
    negatives_of[i] = {(i + 3) % n, (i + 7) % n, i};
  }
  const std::vector<NodeId> batch = {0, 2, 3, 5, 7, 8};
  std::vector<uint8_t> in_batch(n, 0);
  for (NodeId i : batch) in_batch[i] = 1;
  std::vector<std::vector<NodeId>> negatives;
  for (NodeId i : batch) negatives.push_back(negatives_of[i]);

  class PerNodeSampler : public NegativeSampler {
   public:
    explicit PerNodeSampler(const std::vector<std::vector<NodeId>>* lists)
        : lists_(lists) {}
    std::vector<NodeId> Sample(NodeId target, int, const std::vector<NodeId>&,
                               Rng*) override {
      return (*lists_)[static_cast<size_t>(target)];
    }

   private:
    const std::vector<std::vector<NodeId>>* lists_;
  };

  for (const bool split : {true, false}) {
    const float a = 0.3f;
    DenseMatrix dz_oracle(n, d, 0.0f);
    PerNodeSampler sampler(&negatives_of);
    Rng rng(1);
    const double positive = PositiveLikelihoodLoss(z, pairs, batch, in_batch,
                                                   split, &dz_oracle);
    const double negative = ContextualNegativeLoss(
        z, batch, in_batch, a, 3, &sampler, &rng, &dz_oracle);

    DenseMatrix dz(n, d, 0.0f);
    const BatchLosses losses = ParallelBatchObjective(
        z, &pairs, split, &negatives, a, batch, in_batch, &dz);
    EXPECT_NEAR(losses.positive, positive, 1e-9) << "split " << split;
    EXPECT_NEAR(losses.negative, negative, 1e-9) << "split " << split;
    for (NodeId i = 0; i < n; ++i) {
      for (int64_t j = 0; j < d; ++j) {
        EXPECT_NEAR(dz.At(i, j), dz_oracle.At(i, j), 1e-6)
            << "split " << split << " row " << i << " col " << j;
      }
    }
  }
}

}  // namespace
}  // namespace coane

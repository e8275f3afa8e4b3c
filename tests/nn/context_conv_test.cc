#include "nn/context_conv.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>

#include "common/parallel/global_pool.h"
#include "common/parallel/parallel_for.h"

namespace coane {
namespace {

// 3 nodes, 2 attributes: x_0 = [1, 0], x_1 = [0, 2], x_2 = [1, 1].
SparseMatrix MakeAttributes() {
  return SparseMatrix::FromTriplets(
      3, 2, {{0, 0, 1.0f}, {1, 1, 2.0f}, {2, 0, 1.0f}, {2, 1, 1.0f}});
}

TEST(ContextEncoderTest, SingleContextKnownValues) {
  Rng rng(1);
  ContextEncoder enc(3, 2, 1, ContextEncoder::Kind::kConvolution, &rng);
  // Set W_p to known values: W_0 = [[1],[0]], W_1 = [[0],[1]],
  // W_2 = [[1],[1]].
  auto set = [&](int p, float a0, float a1) {
    auto& w = const_cast<DenseMatrix&>(enc.PositionWeights(p));
    w.At(0, 0) = a0;
    w.At(1, 0) = a1;
  };
  set(0, 1.0f, 0.0f);
  set(1, 0.0f, 1.0f);
  set(2, 1.0f, 1.0f);

  ContextSet cs(3, 3);
  cs.Add(1, {0, 1, 2});  // midst 1, context [x0; x1; x2]
  SparseMatrix x = MakeAttributes();
  float out = -1.0f;
  enc.EncodeNode(cs, x, 1, &out);
  // z = x0.W0 + x1.W1 + x2.W2 = (1*1+0*0) + (0*0+2*1) + (1*1+1*1) = 5.
  EXPECT_FLOAT_EQ(out, 5.0f);
}

TEST(ContextEncoderTest, PaddingContributesZero) {
  Rng rng(2);
  ContextEncoder enc(3, 2, 4, ContextEncoder::Kind::kConvolution, &rng);
  ContextSet with_pad(3, 3);
  with_pad.Add(0, {kPaddingNode, 0, kPaddingNode});
  SparseMatrix x = MakeAttributes();
  std::vector<float> z(4);
  enc.EncodeNode(with_pad, x, 0, z.data());
  // Only the center position contributes: z = x0 . W_1 = W_1.Row(0).
  const DenseMatrix& w1 = enc.PositionWeights(1);
  for (int64_t j = 0; j < 4; ++j) EXPECT_FLOAT_EQ(z[j], w1.At(0, j));
}

TEST(ContextEncoderTest, AveragePoolingOverContexts) {
  Rng rng(3);
  ContextEncoder enc(1, 2, 3, ContextEncoder::Kind::kConvolution, &rng);
  SparseMatrix x = MakeAttributes();
  ContextSet one(3, 1);
  one.Add(0, {0});
  ContextSet two(3, 1);
  two.Add(0, {0});
  two.Add(0, {0});
  std::vector<float> z1(3), z2(3);
  enc.EncodeNode(one, x, 0, z1.data());
  enc.EncodeNode(two, x, 0, z2.data());
  for (int j = 0; j < 3; ++j) {
    EXPECT_NEAR(z1[j], z2[j], 1e-6f)
        << "duplicated contexts average to the same embedding";
  }
}

TEST(ContextEncoderTest, NoContextsGivesZeroEmbedding) {
  Rng rng(4);
  ContextEncoder enc(3, 2, 4, ContextEncoder::Kind::kConvolution, &rng);
  ContextSet cs(3, 3);
  SparseMatrix x = MakeAttributes();
  std::vector<float> z(4, 9.0f);
  enc.EncodeNode(cs, x, 2, z.data());
  for (float v : z) EXPECT_FLOAT_EQ(v, 0.0f);
}

TEST(ContextEncoderTest, FullyConnectedSharesWeights) {
  Rng rng(5);
  ContextEncoder enc(3, 2, 2, ContextEncoder::Kind::kFullyConnected, &rng);
  // All positions must alias the same matrix.
  EXPECT_EQ(&enc.PositionWeights(0), &enc.PositionWeights(1));
  EXPECT_EQ(&enc.PositionWeights(0), &enc.PositionWeights(2));
}

TEST(ContextEncoderTest, ConvolutionHasDistinctPositionWeights) {
  Rng rng(6);
  ContextEncoder enc(3, 2, 2, ContextEncoder::Kind::kConvolution, &rng);
  EXPECT_NE(&enc.PositionWeights(0), &enc.PositionWeights(1));
}

TEST(ContextEncoderTest, EncodeAllMatchesEncodeNode) {
  Rng rng(7);
  ContextEncoder enc(3, 2, 4, ContextEncoder::Kind::kConvolution, &rng);
  ContextSet cs(3, 3);
  cs.Add(0, {kPaddingNode, 0, 1});
  cs.Add(1, {0, 1, 2});
  cs.Add(1, {2, 1, 0});
  SparseMatrix x = MakeAttributes();
  DenseMatrix all = enc.EncodeAll(cs, x);
  for (NodeId v = 0; v < 3; ++v) {
    std::vector<float> z(4);
    enc.EncodeNode(cs, x, v, z.data());
    for (int64_t j = 0; j < 4; ++j) EXPECT_FLOAT_EQ(all.At(v, j), z[j]);
  }
}

// Finite-difference gradient check of the filters through a quadratic loss
// L = 0.5 * ||z_v||^2, dL/dz = z.
TEST(ContextEncoderTest, FilterGradientMatchesFiniteDifference) {
  for (auto kind : {ContextEncoder::Kind::kConvolution,
                    ContextEncoder::Kind::kFullyConnected}) {
    Rng rng(8);
    ContextEncoder enc(3, 2, 2, kind, &rng);
    ContextSet cs(3, 3);
    cs.Add(1, {0, 1, 2});
    cs.Add(1, {kPaddingNode, 1, 0});
    SparseMatrix x = MakeAttributes();

    auto loss = [&]() {
      std::vector<float> z(2);
      enc.EncodeNode(cs, x, 1, z.data());
      return 0.5 * (static_cast<double>(z[0]) * z[0] +
                    static_cast<double>(z[1]) * z[1]);
    };

    std::vector<float> z(2);
    enc.EncodeNode(cs, x, 1, z.data());
    enc.ZeroGrad();
    std::vector<DenseMatrix> buf = enc.MakeGradBuffer();
    enc.AccumulateGradientInto(cs, x, 1, z.data(), &buf);
    enc.MergeGrad(buf);

    // Compare the analytic gradient entry by entry with a central
    // difference of the loss.
    const float eps = 1e-3f;
    const int positions = (kind == ContextEncoder::Kind::kConvolution) ? 3 : 1;
    for (int p = 0; p < positions; ++p) {
      auto& w = const_cast<DenseMatrix&>(enc.PositionWeights(p));
      for (int64_t i = 0; i < w.rows(); ++i) {
        for (int64_t j = 0; j < w.cols(); ++j) {
          const float orig = w.At(i, j);
          w.At(i, j) = orig + eps;
          double lp = loss();
          w.At(i, j) = orig - eps;
          double lm = loss();
          w.At(i, j) = orig;
          const double fd = (lp - lm) / (2.0 * eps);
          EXPECT_NEAR(enc.grad(p).At(i, j), fd, 5e-2)
              << "kind=" << static_cast<int>(kind) << " p=" << p << " ("
              << i << "," << j << ")";
        }
      }
    }
  }
}

TEST(ContextEncoderTest, TrainingReducesLoss) {
  // Drive z_v toward a target via Adam on the filters.
  Rng rng(9);
  ContextEncoder enc(3, 2, 2, ContextEncoder::Kind::kConvolution, &rng);
  AdamOptimizer opt;
  enc.RegisterParams(&opt);
  ContextSet cs(3, 3);
  cs.Add(1, {0, 1, 2});
  SparseMatrix x = MakeAttributes();
  const float target[2] = {1.0f, -2.0f};

  auto current_loss = [&]() {
    std::vector<float> z(2);
    enc.EncodeNode(cs, x, 1, z.data());
    double l = 0.0;
    for (int j = 0; j < 2; ++j) {
      l += 0.5 * (z[j] - target[j]) * (z[j] - target[j]);
    }
    return l;
  };

  const double initial = current_loss();
  for (int step = 0; step < 500; ++step) {
    std::vector<float> z(2);
    enc.EncodeNode(cs, x, 1, z.data());
    std::vector<float> dz(2);
    for (int j = 0; j < 2; ++j) dz[j] = z[j] - target[j];
    enc.ZeroGrad();
    std::vector<DenseMatrix> buf = enc.MakeGradBuffer();
    enc.AccumulateGradientInto(cs, x, 1, dz.data(), &buf);
    enc.MergeGrad(buf);
    enc.ApplyGrad(&opt);
  }
  EXPECT_LT(current_loss(), initial * 0.01);
}

// The full-buffer reduction ComputeBatchGradient must reproduce byte for
// byte: ZeroGrad, one MakeGradBuffer + AccumulateGradientInto buffer per
// fixed shard of the batch, MergeGrad in shard order.
void OracleBatchGradient(ContextEncoder* enc, const ContextSet& cs,
                         const SparseMatrix& x,
                         const std::vector<NodeId>& batch,
                         const DenseMatrix& dz) {
  enc->ZeroGrad();
  std::vector<std::vector<DenseMatrix>> shards(
      static_cast<size_t>(kFixedReductionShards));
  (void)ParallelFor(nullptr, nullptr, "test.oracle_grad",
                    static_cast<int64_t>(batch.size()),
                    kFixedReductionShards,
                    [&](int64_t shard, int64_t begin, int64_t end) {
                      auto& buf = shards[static_cast<size_t>(shard)];
                      buf = enc->MakeGradBuffer();
                      for (int64_t b = begin; b < end; ++b) {
                        const NodeId v = batch[static_cast<size_t>(b)];
                        enc->AccumulateGradientInto(cs, x, v, dz.Row(v),
                                                    &buf);
                      }
                      return Status::OK();
                    });
  for (const auto& buf : shards) {
    if (!buf.empty()) enc->MergeGrad(buf);
  }
}

TEST(ContextEncoderTest, BatchGradientMatchesFullBufferOracleBytes) {
  const int64_t n = 300, d = 37, dout = 6;
  const int c = 3;
  Rng rng(41);
  // Sparse features with some empty rows; x_{n-1} is the only row holding
  // attribute d-1, so that gradient row is touched only when n-1 is in a
  // context.
  std::vector<SparseMatrix::Triplet> triplets;
  for (int64_t v = 0; v + 1 < n; ++v) {
    if (v % 11 == 0) continue;
    for (int k = 0; k < 4; ++k) {
      triplets.push_back({v, rng.UniformInt(d - 1),
                          static_cast<float>(rng.Uniform(-2.0, 2.0))});
    }
  }
  triplets.push_back({n - 1, d - 1, 1.5f});
  const SparseMatrix x = SparseMatrix::FromTriplets(n, d, triplets);
  // Contexts: every 7th node has none; the rest mix real and padding
  // neighbours.
  ContextSet cs(n, c);
  for (NodeId v = 0; v < n; ++v) {
    if (v % 7 == 3) continue;
    const int count = 1 + static_cast<int>(rng.UniformInt(4));
    for (int k = 0; k < count; ++k) {
      std::vector<NodeId> context(static_cast<size_t>(c));
      for (int p = 0; p < c; ++p) {
        context[static_cast<size_t>(p)] =
            rng.UniformInt(5) == 0 ? kPaddingNode : rng.UniformInt(n);
      }
      context[static_cast<size_t>(c / 2)] = v;
      cs.Add(v, context);
    }
  }
  DenseMatrix dz(n, dout, 0.0f);
  for (int64_t i = 0; i < dz.size(); ++i) {
    dz.data()[i] = static_cast<float>(rng.Normal());
  }
  // Non-finite dL/dz rows must propagate identically (inf, -inf, NaN).
  dz.At(5, 0) = std::numeric_limits<float>::infinity();
  dz.At(6, 1) = -std::numeric_limits<float>::infinity();
  dz.At(8, 2) = std::numeric_limits<float>::quiet_NaN();

  std::vector<NodeId> order(static_cast<size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  for (auto kind : {ContextEncoder::Kind::kConvolution,
                    ContextEncoder::Kind::kFullyConnected}) {
    for (int threads : {1, 3, 8}) {
      SetGlobalParallelism(threads);
      Rng init(7);
      ContextEncoder enc(c, d, dout, kind, &init);
      ContextEncoder oracle(c, d, dout, kind, &init);
      Rng shuffle(99);
      // Batches below kFixedReductionShards leave shards idle: 1 runs on
      // fresh scratch, 7 after 256 has filled all eight shards.
      for (int64_t batch_size : {1, 256, 7, 9, 8}) {
        // Three consecutive batches on one encoder: stale slots or rows
        // left by an earlier batch would show in a later one.
        for (int round = 0; round < 3; ++round) {
          shuffle.Shuffle(&order);
          std::vector<NodeId> batch(order.begin(),
                                    order.begin() + batch_size);
          if (round == 0) batch[0] = 5;  // inf row
          if (round == 1) batch.back() = 8;  // NaN row
          enc.ComputeBatchGradient(cs, x, batch, dz);
          OracleBatchGradient(&oracle, cs, x, batch, dz);
          ASSERT_EQ(enc.num_weight_matrices(), oracle.num_weight_matrices());
          for (int i = 0; i < enc.num_weight_matrices(); ++i) {
            const DenseMatrix& got = enc.grad(i);
            const DenseMatrix& want = oracle.grad(i);
            ASSERT_TRUE(got.SameShape(want));
            EXPECT_EQ(std::memcmp(got.data(), want.data(),
                                  static_cast<size_t>(got.size()) *
                                      sizeof(float)),
                      0)
                << "kind=" << static_cast<int>(kind) << " threads=" << threads
                << " batch=" << batch_size << " round=" << round
                << " matrix=" << i;
          }
        }
      }
    }
  }
  SetGlobalParallelism(1);
}

}  // namespace
}  // namespace coane

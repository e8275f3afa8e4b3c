// Parameterized finite-difference gradient checks over the neural-net
// substrate: every (context size, input dim, output dim, encoder kind)
// combination of the context convolution, and MLPs of several depths.

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "common/rng.h"
#include "nn/context_conv.h"
#include "nn/mlp.h"

namespace coane {
namespace {

// context size, input dim, output dim, kind.
using ConvParam = std::tuple<int, int, int, ContextEncoder::Kind>;

class ConvGradcheckTest : public ::testing::TestWithParam<ConvParam> {};

TEST_P(ConvGradcheckTest, FilterGradientsMatchFiniteDifference) {
  auto [c, d, out, kind] = GetParam();
  Rng rng(static_cast<uint64_t>(c * 1000 + d * 10 + out));
  ContextEncoder enc(c, d, out, kind, &rng);

  // Random sparse attributes over 6 nodes.
  std::vector<SparseMatrix::Triplet> triplets;
  for (int64_t v = 0; v < 6; ++v) {
    for (int64_t a = 0; a < d; ++a) {
      if (rng.Bernoulli(0.5)) {
        triplets.push_back({v, a, static_cast<float>(rng.Uniform(0.2, 1))});
      }
    }
  }
  SparseMatrix x = SparseMatrix::FromTriplets(6, d, std::move(triplets));

  // Two contexts for node 1, one with padding.
  ContextSet cs(6, c);
  std::vector<NodeId> ctx1, ctx2;
  for (int p = 0; p < c; ++p) {
    ctx1.push_back(static_cast<NodeId>(rng.UniformInt(6)));
    ctx2.push_back(p == 0 ? kPaddingNode
                          : static_cast<NodeId>(rng.UniformInt(6)));
  }
  ctx1[static_cast<size_t>((c - 1) / 2)] = 1;
  ctx2[static_cast<size_t>((c - 1) / 2)] = 1;
  cs.Add(1, ctx1);
  cs.Add(1, ctx2);

  // L = 0.5 ||z||^2 so dL/dz = z.
  auto loss = [&]() {
    std::vector<float> z(static_cast<size_t>(out));
    enc.EncodeNode(cs, x, 1, z.data());
    double s = 0.0;
    for (float v : z) s += 0.5 * static_cast<double>(v) * v;
    return s;
  };
  std::vector<float> z(static_cast<size_t>(out));
  enc.EncodeNode(cs, x, 1, z.data());
  enc.ZeroGrad();
  std::vector<DenseMatrix> buf = enc.MakeGradBuffer();
  enc.AccumulateGradientInto(cs, x, 1, z.data(), &buf);
  enc.MergeGrad(buf);

  // Analytic gradient of filters = sum over contexts/positions of
  // (1/|C|) x_u outer dz. Verify numerically against the loss.
  const float eps = 1e-3f;
  const int positions =
      kind == ContextEncoder::Kind::kConvolution ? c : 1;
  for (int p = 0; p < positions; ++p) {
    auto& w = const_cast<DenseMatrix&>(enc.PositionWeights(p));
    // Spot-check a handful of entries to keep the sweep fast.
    for (int64_t i = 0; i < w.rows(); i += std::max<int64_t>(1, d / 3)) {
      for (int64_t j = 0; j < w.cols(); ++j) {
        const float orig = w.At(i, j);
        w.At(i, j) = orig + eps;
        const double lp = loss();
        w.At(i, j) = orig - eps;
        const double lm = loss();
        w.At(i, j) = orig;
        const double fd = (lp - lm) / (2.0 * eps);
        // Recompute analytic entry from first principles.
        double analytic = 0.0;
        const auto& contexts = cs.Contexts(1);
        for (const auto& context : contexts) {
          for (int q = 0; q < c; ++q) {
            const bool same =
                kind == ContextEncoder::Kind::kFullyConnected || q == p;
            if (!same) continue;
            const NodeId u = context[static_cast<size_t>(q)];
            if (u == kPaddingNode) continue;
            analytic += (1.0 / contexts.size()) * x.At(u, i) *
                        z[static_cast<size_t>(j)];
          }
        }
        EXPECT_NEAR(analytic, fd, 0.05 * std::max(1.0, std::abs(fd)))
            << "c=" << c << " d=" << d << " out=" << out << " p=" << p
            << " (" << i << "," << j << ")";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ConvGradcheckTest,
    ::testing::Combine(::testing::Values(1, 3, 5),
                       ::testing::Values(2, 6),
                       ::testing::Values(1, 4),
                       ::testing::Values(
                           ContextEncoder::Kind::kConvolution,
                           ContextEncoder::Kind::kFullyConnected)));

class MlpDepthTest : public ::testing::TestWithParam<int> {};

TEST_P(MlpDepthTest, InputGradientMatchesFiniteDifference) {
  const int hidden_layers = GetParam();
  Rng rng(static_cast<uint64_t>(hidden_layers + 100));
  std::vector<int64_t> dims = {3};
  for (int h = 0; h < hidden_layers; ++h) dims.push_back(6);
  dims.push_back(2);
  Mlp mlp(dims, &rng);

  DenseMatrix x(2, 3);
  x.GaussianInit(&rng, 0.0f, 1.0f);
  DenseMatrix target(2, 2);
  target.GaussianInit(&rng, 0.0f, 1.0f);

  DenseMatrix y = mlp.Forward(x);
  DenseMatrix grad;
  MseLoss(y, target, &grad);
  mlp.ZeroGrad();
  DenseMatrix dx = mlp.Backward(grad);

  const float eps = 1e-3f;
  for (int64_t i = 0; i < 2; ++i) {
    for (int64_t j = 0; j < 3; ++j) {
      DenseMatrix xp = x, xm = x;
      xp.At(i, j) += eps;
      xm.At(i, j) -= eps;
      const double fd =
          (MseLoss(mlp.Forward(xp), target, nullptr) -
           MseLoss(mlp.Forward(xm), target, nullptr)) /
          (2.0 * eps);
      EXPECT_NEAR(dx.At(i, j), fd, 6e-3)
          << "depth=" << hidden_layers << " dx[" << i << "," << j << "]";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Depths, MlpDepthTest, ::testing::Values(0, 1, 2, 3));

}  // namespace
}  // namespace coane

#include "nn/linear.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

namespace coane {
namespace {

TEST(LinearTest, ForwardKnownValues) {
  Rng rng(1);
  Linear layer(2, 2, &rng);
  // Overwrite weights with known values: W = [[1,2],[3,4]], b = [0.5, -0.5].
  DenseMatrix* w = layer.mutable_weight();
  w->At(0, 0) = 1;
  w->At(0, 1) = 2;
  w->At(1, 0) = 3;
  w->At(1, 1) = 4;
  // bias is private; exercise with zero bias via fresh layer semantics:
  DenseMatrix x(1, 2);
  x.At(0, 0) = 1.0f;
  x.At(0, 1) = 2.0f;
  DenseMatrix y = layer.Forward(x);
  EXPECT_FLOAT_EQ(y.At(0, 0), 7.0f);  // 1*1 + 2*3 (+ bias 0)
  EXPECT_FLOAT_EQ(y.At(0, 1), 10.0f);
}

// Finite-difference check of dL/dW, dL/db, and dL/dx with L = sum(y^2)/2,
// so dL/dy = y.
TEST(LinearTest, GradientsMatchFiniteDifference) {
  Rng rng(2);
  Linear layer(3, 2, &rng);
  DenseMatrix x(2, 3);
  x.GaussianInit(&rng, 0.0f, 1.0f);

  auto loss = [&](Linear& l, const DenseMatrix& input) {
    DenseMatrix y = l.Forward(input);
    double s = 0.0;
    for (int64_t i = 0; i < y.size(); ++i) {
      s += 0.5 * static_cast<double>(y.data()[i]) * y.data()[i];
    }
    return s;
  };

  DenseMatrix y = layer.Forward(x);
  layer.ZeroGrad();
  DenseMatrix dx = layer.Backward(y);  // dL/dy = y

  const float eps = 1e-3f;
  // dW check.
  for (int64_t i = 0; i < 3; ++i) {
    for (int64_t j = 0; j < 2; ++j) {
      float& wij = layer.mutable_weight()->At(i, j);
      const float orig = wij;
      wij = orig + eps;
      double lp = loss(layer, x);
      wij = orig - eps;
      double lm = loss(layer, x);
      wij = orig;
      const double fd = (lp - lm) / (2.0 * eps);
      EXPECT_NEAR(layer.weight_grad().At(i, j), fd, 2e-2)
          << "dW[" << i << "," << j << "]";
    }
  }
  // dx check.
  for (int64_t i = 0; i < 2; ++i) {
    for (int64_t j = 0; j < 3; ++j) {
      DenseMatrix xp = x, xm = x;
      xp.At(i, j) += eps;
      xm.At(i, j) -= eps;
      const double fd = (loss(layer, xp) - loss(layer, xm)) / (2.0 * eps);
      EXPECT_NEAR(dx.At(i, j), fd, 2e-2) << "dx[" << i << "," << j << "]";
    }
  }
}

bool SameBytes(const DenseMatrix& a, const DenseMatrix& b) {
  return a.SameShape(b) &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

// Forward's bias add and Backward's gradient accumulation, against the
// scalar loops they replaced, byte for byte. 19 output columns cover both
// the vector steps and the scalar tail; the bias and dy carry +-0, inf and
// NaN so the loops must agree on every special value too.
TEST(LinearTest, BiasAndGradientsMatchScalarLoopBytes) {
  Rng rng(4);
  Linear layer(5, 19, &rng);
  DenseMatrix* bias = layer.mutable_bias();
  bias->GaussianInit(&rng, 0.0f, 1.0f);
  bias->At(0, 1) = -0.0f;
  bias->At(0, 9) = std::numeric_limits<float>::infinity();
  bias->At(0, 17) = std::numeric_limits<float>::quiet_NaN();
  DenseMatrix x(6, 5);
  x.GaussianInit(&rng, 0.0f, 1.0f);

  DenseMatrix want_y = x.MatMul(layer.weight());
  for (int64_t i = 0; i < want_y.rows(); ++i) {
    float* row = want_y.Row(i);
    for (int64_t j = 0; j < want_y.cols(); ++j) row[j] += bias->At(0, j);
  }
  EXPECT_TRUE(SameBytes(layer.Forward(x), want_y));

  DenseMatrix want_w_grad(5, 19, 0.0f);
  DenseMatrix want_b_grad(1, 19, 0.0f);
  layer.ZeroGrad();
  for (int step = 0; step < 2; ++step) {
    DenseMatrix dy(6, 19);
    dy.GaussianInit(&rng, 0.0f, 1.0f);
    dy.At(step, 3) = -0.0f;
    dy.At(2, 11 + step) = -std::numeric_limits<float>::infinity();
    const DenseMatrix xt_dy = x.TransposedMatMul(dy);
    for (int64_t i = 0; i < xt_dy.size(); ++i) {
      want_w_grad.data()[i] += 1.0f * xt_dy.data()[i];
    }
    for (int64_t i = 0; i < dy.rows(); ++i) {
      const float* row = dy.Row(i);
      for (int64_t j = 0; j < dy.cols(); ++j) want_b_grad.At(0, j) += row[j];
    }
    layer.Backward(dy);
    EXPECT_TRUE(SameBytes(layer.weight_grad(), want_w_grad)) << step;
    EXPECT_TRUE(SameBytes(layer.bias_grad(), want_b_grad)) << step;
  }
}

TEST(LinearTest, TrainsToLinearTarget) {
  // Fit y = 2x with a 1 -> 1 layer via Adam.
  Rng rng(3);
  Linear layer(1, 1, &rng);
  AdamConfig cfg;
  cfg.learning_rate = 0.01f;
  AdamOptimizer opt(cfg);
  layer.RegisterParams(&opt);
  for (int step = 0; step < 3000; ++step) {
    DenseMatrix x(4, 1);
    for (int64_t i = 0; i < 4; ++i) {
      x.At(i, 0) = static_cast<float>(rng.Uniform(-1, 1));
    }
    DenseMatrix target(4, 1);
    for (int64_t i = 0; i < 4; ++i) target.At(i, 0) = 2.0f * x.At(i, 0);
    DenseMatrix pred = layer.Forward(x);
    DenseMatrix grad;
    MseLoss(pred, target, &grad);
    layer.ZeroGrad();
    layer.Backward(grad);
    layer.ApplyGrad(&opt);
  }
  EXPECT_NEAR(layer.weight().At(0, 0), 2.0f, 0.05f);
  EXPECT_NEAR(layer.bias().At(0, 0), 0.0f, 0.05f);
}

TEST(ReluTest, ForwardAndBackward) {
  ReluActivation relu;
  DenseMatrix x(1, 4);
  x.At(0, 0) = -1.0f;
  x.At(0, 1) = 0.0f;
  x.At(0, 2) = 2.0f;
  x.At(0, 3) = -3.0f;
  DenseMatrix y = relu.Forward(x);
  EXPECT_FLOAT_EQ(y.At(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(y.At(0, 1), 0.0f);
  EXPECT_FLOAT_EQ(y.At(0, 2), 2.0f);
  DenseMatrix dy(1, 4, 1.0f);
  DenseMatrix dx = relu.Backward(dy);
  EXPECT_FLOAT_EQ(dx.At(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(dx.At(0, 2), 1.0f);
  EXPECT_FLOAT_EQ(dx.At(0, 3), 0.0f);
}

TEST(MseLossTest, ValueAndGradient) {
  DenseMatrix pred(1, 2);
  pred.At(0, 0) = 1.0f;
  pred.At(0, 1) = 3.0f;
  DenseMatrix target(1, 2);
  target.At(0, 0) = 0.0f;
  target.At(0, 1) = 1.0f;
  DenseMatrix grad;
  double loss = MseLoss(pred, target, &grad);
  EXPECT_DOUBLE_EQ(loss, (1.0 + 4.0) / 2.0);
  EXPECT_FLOAT_EQ(grad.At(0, 0), 1.0f);   // 2*1/2
  EXPECT_FLOAT_EQ(grad.At(0, 1), 2.0f);   // 2*2/2
  EXPECT_DOUBLE_EQ(MseLoss(pred, pred, nullptr), 0.0);
}

}  // namespace
}  // namespace coane

#include "la/dense_matrix.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "common/parallel/global_pool.h"
#include "la/matrix_oracles.h"
#include "nn/linear.h"
#include "nn/mlp.h"

namespace coane {
namespace {

// The row-axpy loop MatMul used before the register-blocked kernel: the
// oracle for the accumulation-order contract. out(i,j) starts at +0 and
// adds a(i,k) * b(k,j) for ascending k, skipping a(i,k) == 0.
DenseMatrix ReferenceMatMul(const DenseMatrix& a, const DenseMatrix& b) {
  DenseMatrix out(a.rows(), b.cols(), 0.0f);
  for (int64_t i = 0; i < a.rows(); ++i) {
    float* out_row = out.Row(i);
    for (int64_t k = 0; k < a.cols(); ++k) {
      const float x = a.At(i, k);
      if (x == 0.0f) continue;
      const float* b_row = b.Row(k);
      for (int64_t j = 0; j < b.cols(); ++j) out_row[j] += x * b_row[j];
    }
  }
  return out;
}

bool SameBytes(const DenseMatrix& x, const DenseMatrix& y) {
  return x.SameShape(y) &&
         (x.size() == 0 ||
          std::memcmp(x.data(), y.data(), sizeof(float) * x.size()) == 0);
}

class ScopedThreads {
 public:
  explicit ScopedThreads(int threads) { SetGlobalParallelism(threads); }
  ~ScopedThreads() { SetGlobalParallelism(1); }
};

// ReLU-style operand: about half the entries are exactly zero.
DenseMatrix ReluNoise(int64_t rows, int64_t cols, Rng* rng) {
  DenseMatrix m(rows, cols);
  m.GaussianInit(rng, 0.0f, 1.0f);
  for (int64_t i = 0; i < m.size(); ++i) {
    if (m.data()[i] < 0.0f) m.data()[i] = 0.0f;
  }
  return m;
}

// Checks all three entry points against the oracle for the logical
// product a * b at threads 1/3/8.
void ExpectAllProductsMatchOracle(const DenseMatrix& a, const DenseMatrix& b) {
  const DenseMatrix want = ReferenceMatMul(a, b);
  const DenseMatrix a_t = Transposed(a);
  const DenseMatrix b_t = Transposed(b);
  for (int threads : {1, 3, 8}) {
    ScopedThreads scoped(threads);
    EXPECT_TRUE(SameBytes(a.MatMul(b), want))
        << "MatMul " << a.rows() << "x" << a.cols() << "x" << b.cols()
        << " threads=" << threads;
    EXPECT_TRUE(SameBytes(a_t.TransposedMatMul(b), want))
        << "TransposedMatMul " << a.rows() << "x" << a.cols() << "x"
        << b.cols() << " threads=" << threads;
    EXPECT_TRUE(SameBytes(a.MatMulTransposed(b_t), want))
        << "MatMulTransposed " << a.rows() << "x" << a.cols() << "x"
        << b.cols() << " threads=" << threads;
  }
}

TEST(DenseMatrixTest, ConstructAndFill) {
  DenseMatrix m(3, 4, 1.5f);
  EXPECT_EQ(m.rows(), 3);
  EXPECT_EQ(m.cols(), 4);
  EXPECT_EQ(m.size(), 12);
  for (int64_t i = 0; i < 3; ++i) {
    for (int64_t j = 0; j < 4; ++j) EXPECT_FLOAT_EQ(m.At(i, j), 1.5f);
  }
  m.Fill(-2.0f);
  EXPECT_FLOAT_EQ(m.At(2, 3), -2.0f);
}

TEST(DenseMatrixTest, RowPointerMatchesAt) {
  DenseMatrix m(2, 3);
  m.At(1, 2) = 7.0f;
  EXPECT_FLOAT_EQ(m.Row(1)[2], 7.0f);
  m.Row(0)[1] = 3.0f;
  EXPECT_FLOAT_EQ(m.At(0, 1), 3.0f);
}

TEST(DenseMatrixTest, XavierInitBounds) {
  Rng rng(1);
  DenseMatrix m(50, 30);
  m.XavierInit(&rng);
  const double bound = std::sqrt(6.0 / (50 + 30));
  double max_abs = 0.0;
  for (int64_t i = 0; i < m.rows(); ++i) {
    for (int64_t j = 0; j < m.cols(); ++j) {
      max_abs = std::max(max_abs, std::abs(static_cast<double>(m.At(i, j))));
    }
  }
  EXPECT_LE(max_abs, bound);
  EXPECT_GT(max_abs, bound * 0.5) << "values should spread over the range";
}

TEST(DenseMatrixTest, XavierInitCustomFans) {
  Rng rng(2);
  DenseMatrix m(4, 4);
  m.XavierInit(&rng, 10000, 10000);
  for (int64_t i = 0; i < 16; ++i) {
    EXPECT_LE(std::abs(m.data()[i]), std::sqrt(6.0 / 20000.0) + 1e-7);
  }
}

TEST(DenseMatrixTest, AxpyAndScale) {
  DenseMatrix a(2, 2, 1.0f);
  DenseMatrix b(2, 2, 3.0f);
  a.Axpy(2.0f, b);
  EXPECT_FLOAT_EQ(a.At(0, 0), 7.0f);
  a.Scale(0.5f);
  EXPECT_FLOAT_EQ(a.At(1, 1), 3.5f);
}

TEST(DenseMatrixTest, FrobeniusNorm) {
  DenseMatrix m(1, 2);
  m.At(0, 0) = 3.0f;
  m.At(0, 1) = 4.0f;
  EXPECT_DOUBLE_EQ(FrobeniusNorm(m), 5.0);
}

TEST(DenseMatrixTest, MatMulKnownValues) {
  DenseMatrix a(2, 3);
  DenseMatrix b(3, 2);
  // a = [[1,2,3],[4,5,6]], b = [[7,8],[9,10],[11,12]]
  float av[] = {1, 2, 3, 4, 5, 6};
  float bv[] = {7, 8, 9, 10, 11, 12};
  for (int i = 0; i < 6; ++i) a.data()[i] = av[i];
  for (int i = 0; i < 6; ++i) b.data()[i] = bv[i];
  DenseMatrix c = a.MatMul(b);
  EXPECT_FLOAT_EQ(c.At(0, 0), 58.0f);
  EXPECT_FLOAT_EQ(c.At(0, 1), 64.0f);
  EXPECT_FLOAT_EQ(c.At(1, 0), 139.0f);
  EXPECT_FLOAT_EQ(c.At(1, 1), 154.0f);
}

TEST(DenseMatrixTest, MatMulIdentity) {
  Rng rng(5);
  DenseMatrix a(4, 4);
  a.GaussianInit(&rng, 0.0f, 1.0f);
  DenseMatrix eye(4, 4, 0.0f);
  for (int64_t i = 0; i < 4; ++i) eye.At(i, i) = 1.0f;
  DenseMatrix c = a.MatMul(eye);
  for (int64_t i = 0; i < 16; ++i) {
    EXPECT_FLOAT_EQ(c.data()[i], a.data()[i]);
  }
}

TEST(DenseMatrixTest, Transposed) {
  DenseMatrix a(2, 3);
  for (int i = 0; i < 6; ++i) a.data()[i] = static_cast<float>(i);
  DenseMatrix t = Transposed(a);
  EXPECT_EQ(t.rows(), 3);
  EXPECT_EQ(t.cols(), 2);
  for (int64_t i = 0; i < 2; ++i) {
    for (int64_t j = 0; j < 3; ++j) EXPECT_FLOAT_EQ(t.At(j, i), a.At(i, j));
  }
}

TEST(DenseMatrixTest, SelectRows) {
  DenseMatrix a(4, 2);
  for (int i = 0; i < 8; ++i) a.data()[i] = static_cast<float>(i);
  DenseMatrix s = a.SelectRows({3, 1});
  EXPECT_EQ(s.rows(), 2);
  EXPECT_FLOAT_EQ(s.At(0, 0), 6.0f);
  EXPECT_FLOAT_EQ(s.At(0, 1), 7.0f);
  EXPECT_FLOAT_EQ(s.At(1, 0), 2.0f);
}

TEST(DenseMatrixTest, GaussianInitMoments) {
  Rng rng(6);
  DenseMatrix m(100, 100);
  m.GaussianInit(&rng, 1.0f, 2.0f);
  double sum = 0.0, sum_sq = 0.0;
  for (int64_t i = 0; i < m.size(); ++i) {
    sum += m.data()[i];
    sum_sq += static_cast<double>(m.data()[i]) * m.data()[i];
  }
  double mean = sum / m.size();
  double var = sum_sq / m.size() - mean * mean;
  EXPECT_NEAR(mean, 1.0, 0.05);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.05);
}

TEST(DenseMatrixTest, ProductsOfEmptyShapesMatchOracle) {
  Rng rng(7);
  // {m, k, n}: empty outputs, and depth 0 (an all-+0 product).
  const int64_t shapes[][3] = {{0, 0, 0}, {0, 5, 3}, {4, 5, 0}, {3, 0, 4}};
  for (const auto& s : shapes) {
    DenseMatrix a(s[0], s[1]);
    DenseMatrix b(s[1], s[2]);
    a.GaussianInit(&rng, 0.0f, 1.0f);
    b.GaussianInit(&rng, 0.0f, 1.0f);
    ExpectAllProductsMatchOracle(a, b);
  }
}

TEST(DenseMatrixTest, ProductsOffTileSizesMatchOracle) {
  Rng rng(8);
  const int64_t sizes[] = {1, 3, 15, 17, 33, 255, 257};
  for (int64_t s : sizes) {
    ExpectAllProductsMatchOracle(ReluNoise(s, s, &rng), ReluNoise(s, s, &rng));
  }
  // Mixed shapes put every size on every axis at least once.
  const int64_t shapes[][3] = {{1, 17, 33},   {3, 255, 15}, {257, 1, 3},
                               {15, 33, 257}, {17, 3, 1},   {33, 257, 255},
                               {255, 15, 17}};
  for (const auto& s : shapes) {
    DenseMatrix b(s[1], s[2]);
    b.GaussianInit(&rng, 0.0f, 1.0f);
    ExpectAllProductsMatchOracle(ReluNoise(s[0], s[1], &rng), b);
  }
}

TEST(DenseMatrixTest, ProductsOfDecoderShapesMatchOracle) {
  Rng rng(9);
  // Forward / weight gradient of the attribute decoder's output layer...
  DenseMatrix w(256, 6024);
  w.GaussianInit(&rng, 0.0f, 0.1f);
  ExpectAllProductsMatchOracle(ReluNoise(256, 256, &rng), w);
  // ...and the input gradient dy * W^T.
  DenseMatrix dy(256, 6024);
  dy.GaussianInit(&rng, 0.0f, 1.0f);
  ExpectAllProductsMatchOracle(dy, Transposed(w));
}

TEST(DenseMatrixTest, NonFiniteOppositeZerosIsSkipped) {
  Rng rng(10);
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  DenseMatrix a = ReluNoise(37, 41, &rng);
  DenseMatrix b(41, 35);
  b.GaussianInit(&rng, 0.0f, 1.0f);
  // Zero whole columns of a, then put inf/nan in the matching rows of b:
  // every term that meets them is skipped, so the product stays finite.
  for (int64_t k : {0, 6, 19, 40}) {
    for (int64_t i = 0; i < a.rows(); ++i) a.At(i, k) = 0.0f;
    for (int64_t j = 0; j < b.cols(); j += 3) {
      b.At(k, j) = (j % 2 == 0) ? nan : ((k % 2 == 0) ? inf : -inf);
    }
  }
  const DenseMatrix want = ReferenceMatMul(a, b);
  for (int64_t i = 0; i < want.size(); ++i) {
    ASSERT_TRUE(std::isfinite(want.data()[i]));
  }
  ExpectAllProductsMatchOracle(a, b);

  // An inf opposite a non-zero does reach the sum, as in the oracle.
  a.At(5, 7) = 2.0f;
  b.At(7, 4) = inf;
  b.At(7, 9) = -inf;
  EXPECT_TRUE(std::isinf(ReferenceMatMul(a, b).At(5, 4)));
  ExpectAllProductsMatchOracle(a, b);
}

// Mlp Forward + MseLoss + Backward (twice, so gradients accumulate) must
// equal, byte for byte, the path that built each transpose and multiplied
// with the row-axpy loop.
TEST(DenseMatrixTest, MlpGradientsMatchTransposeThenMultiply) {
  const std::vector<int64_t> dims = {13, 33, 17, 65};
  for (int threads : {1, 3}) {
    ScopedThreads scoped(threads);
    Rng rng(11);
    Mlp mlp(dims, &rng);
    const size_t layers = mlp.num_layers();
    std::vector<DenseMatrix> want_w(layers), want_b(layers);
    for (size_t l = 0; l < layers; ++l) {
      want_w[l] = DenseMatrix(dims[l], dims[l + 1], 0.0f);
      want_b[l] = DenseMatrix(1, dims[l + 1], 0.0f);
    }
    mlp.ZeroGrad();
    for (int round = 0; round < 2; ++round) {
      DenseMatrix x(19, dims.front());
      x.GaussianInit(&rng, 0.0f, 1.0f);
      DenseMatrix target(19, dims.back());
      target.GaussianInit(&rng, 0.0f, 1.0f);

      // Old path, forward: keep each layer's input and ReLU mask.
      std::vector<DenseMatrix> inputs, masks;
      DenseMatrix h = x;
      for (size_t l = 0; l < layers; ++l) {
        inputs.push_back(h);
        h = ReferenceMatMul(h, mlp.layer(l).weight());
        for (int64_t i = 0; i < h.rows(); ++i) {
          for (int64_t j = 0; j < h.cols(); ++j) {
            h.At(i, j) += mlp.layer(l).bias().At(0, j);
          }
        }
        if (l + 1 < layers) {
          DenseMatrix mask(h.rows(), h.cols(), 0.0f);
          for (int64_t i = 0; i < h.size(); ++i) {
            if (h.data()[i] > 0.0f) {
              mask.data()[i] = 1.0f;
            } else {
              h.data()[i] = 0.0f;
            }
          }
          masks.push_back(mask);
        }
      }
      const DenseMatrix out = mlp.Forward(x);
      ASSERT_TRUE(SameBytes(out, h));

      DenseMatrix dout;
      MseLoss(out, target, &dout);
      const DenseMatrix dx = mlp.Backward(dout);

      // Old path, backward.
      DenseMatrix d = dout;
      for (size_t l = layers; l-- > 0;) {
        if (l + 1 < layers) {
          for (int64_t i = 0; i < d.size(); ++i) {
            d.data()[i] *= masks[l].data()[i];
          }
        }
        want_w[l].Axpy(1.0f, ReferenceMatMul(Transposed(inputs[l]), d));
        for (int64_t i = 0; i < d.rows(); ++i) {
          for (int64_t j = 0; j < d.cols(); ++j) {
            want_b[l].At(0, j) += d.At(i, j);
          }
        }
        d = ReferenceMatMul(d, Transposed(mlp.layer(l).weight()));
      }
      EXPECT_TRUE(SameBytes(dx, d)) << "round " << round;
      for (size_t l = 0; l < layers; ++l) {
        EXPECT_TRUE(SameBytes(mlp.layer(l).weight_grad(), want_w[l]))
            << "layer " << l << " round " << round;
        EXPECT_TRUE(SameBytes(mlp.layer(l).bias_grad(), want_b[l]))
            << "layer " << l << " round " << round;
      }
    }
  }
}

}  // namespace
}  // namespace coane

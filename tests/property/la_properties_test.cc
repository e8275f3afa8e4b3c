// Property-based tests of the linear-algebra substrate: algebraic
// identities checked over a parameterized sweep of random shapes and
// sparsity levels.

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "common/rng.h"
#include "la/dense_matrix.h"
#include "la/matrix_oracles.h"
#include "la/sparse_matrix.h"

namespace coane {
namespace {

using ShapeParam = std::tuple<int, int, int>;  // rows, inner, cols

class MatrixAlgebraTest : public ::testing::TestWithParam<ShapeParam> {};

DenseMatrix RandomDense(int64_t r, int64_t c, Rng* rng) {
  DenseMatrix m(r, c);
  m.GaussianInit(rng, 0.0f, 1.0f);
  return m;
}

SparseMatrix RandomSparse(int64_t r, int64_t c, double density, Rng* rng) {
  std::vector<SparseMatrix::Triplet> t;
  for (int64_t i = 0; i < r; ++i) {
    for (int64_t j = 0; j < c; ++j) {
      if (rng->Bernoulli(density)) {
        t.push_back({i, j, static_cast<float>(rng->Normal(0, 1))});
      }
    }
  }
  return SparseMatrix::FromTriplets(r, c, std::move(t));
}

TEST_P(MatrixAlgebraTest, DoubleTransposeIsIdentity) {
  auto [r, k, c] = GetParam();
  Rng rng(static_cast<uint64_t>(r * 100 + k * 10 + c));
  DenseMatrix a = RandomDense(r, c, &rng);
  DenseMatrix tt = Transposed(Transposed(a));
  ASSERT_TRUE(tt.SameShape(a));
  for (int64_t i = 0; i < a.size(); ++i) {
    EXPECT_FLOAT_EQ(tt.data()[i], a.data()[i]);
  }
}

TEST_P(MatrixAlgebraTest, TransposeOfProduct) {
  auto [r, k, c] = GetParam();
  Rng rng(static_cast<uint64_t>(r * 101 + k * 11 + c));
  DenseMatrix a = RandomDense(r, k, &rng);
  DenseMatrix b = RandomDense(k, c, &rng);
  DenseMatrix left = Transposed(a.MatMul(b));
  DenseMatrix right = Transposed(b).MatMul(Transposed(a));
  ASSERT_TRUE(left.SameShape(right));
  for (int64_t i = 0; i < left.size(); ++i) {
    EXPECT_NEAR(left.data()[i], right.data()[i], 1e-4f);
  }
}

TEST_P(MatrixAlgebraTest, MatMulDistributesOverAxpy) {
  // (A + B) C == A C + B C.
  auto [r, k, c] = GetParam();
  Rng rng(static_cast<uint64_t>(r * 102 + k * 12 + c));
  DenseMatrix a = RandomDense(r, k, &rng);
  DenseMatrix b = RandomDense(r, k, &rng);
  DenseMatrix m = RandomDense(k, c, &rng);
  DenseMatrix sum = a;
  sum.Axpy(1.0f, b);
  DenseMatrix left = sum.MatMul(m);
  DenseMatrix right = a.MatMul(m);
  right.Axpy(1.0f, b.MatMul(m));
  for (int64_t i = 0; i < left.size(); ++i) {
    EXPECT_NEAR(left.data()[i], right.data()[i], 1e-3f);
  }
}

TEST_P(MatrixAlgebraTest, SparseMatMulMatchesDense) {
  auto [r, k, c] = GetParam();
  Rng rng(static_cast<uint64_t>(r * 103 + k * 13 + c));
  SparseMatrix s = RandomSparse(r, k, 0.3, &rng);
  DenseMatrix d = RandomDense(k, c, &rng);
  DenseMatrix via_sparse = s.MatMulDense(d);
  DenseMatrix via_dense = ToDense(s).MatMul(d);
  ASSERT_TRUE(via_sparse.SameShape(via_dense));
  for (int64_t i = 0; i < via_sparse.size(); ++i) {
    EXPECT_NEAR(via_sparse.data()[i], via_dense.data()[i], 1e-4f);
  }
}

TEST_P(MatrixAlgebraTest, SparseAddMatchesDenseAdd) {
  auto [r, k, c] = GetParam();
  (void)c;
  Rng rng(static_cast<uint64_t>(r * 104 + k * 14));
  SparseMatrix a = RandomSparse(r, k, 0.25, &rng);
  SparseMatrix b = RandomSparse(r, k, 0.25, &rng);
  DenseMatrix sum_sparse = ToDense(SparseMatrix::Add(a, b));
  DenseMatrix sum_dense = ToDense(a);
  sum_dense.Axpy(1.0f, ToDense(b));
  for (int64_t i = 0; i < sum_sparse.size(); ++i) {
    EXPECT_NEAR(sum_sparse.data()[i], sum_dense.data()[i], 1e-5f);
  }
}

TEST_P(MatrixAlgebraTest, RowNormalizedRowsSumToOne) {
  auto [r, k, c] = GetParam();
  (void)c;
  Rng rng(static_cast<uint64_t>(r * 105 + k * 15));
  // Positive entries so row sums are positive where non-empty.
  std::vector<SparseMatrix::Triplet> t;
  for (int64_t i = 0; i < r; ++i) {
    for (int64_t j = 0; j < k; ++j) {
      if (rng.Bernoulli(0.4)) {
        t.push_back({i, j, static_cast<float>(rng.Uniform(0.1, 2.0))});
      }
    }
  }
  SparseMatrix s = SparseMatrix::FromTriplets(r, k, std::move(t));
  SparseMatrix n = s.RowNormalized();
  for (int64_t i = 0; i < r; ++i) {
    if (s.RowNnz(i) > 0) {
      EXPECT_NEAR(n.RowSum(i), 1.0, 1e-5);
    } else {
      EXPECT_DOUBLE_EQ(n.RowSum(i), 0.0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, MatrixAlgebraTest,
                         ::testing::Values(ShapeParam{1, 1, 1},
                                           ShapeParam{2, 3, 4},
                                           ShapeParam{5, 5, 5},
                                           ShapeParam{7, 2, 9},
                                           ShapeParam{10, 16, 3},
                                           ShapeParam{16, 8, 16}));

}  // namespace
}  // namespace coane

#include "la/sparse_matrix.h"

#include <gtest/gtest.h>

#include "la/matrix_oracles.h"

namespace coane {
namespace {

SparseMatrix MakeExample() {
  // [[0, 2, 0],
  //  [1, 0, 3],
  //  [0, 0, 0]]
  return SparseMatrix::FromTriplets(
      3, 3, {{0, 1, 2.0f}, {1, 0, 1.0f}, {1, 2, 3.0f}});
}

TEST(SparseMatrixTest, BasicShapeAndNnz) {
  SparseMatrix m = MakeExample();
  EXPECT_EQ(m.rows(), 3);
  EXPECT_EQ(m.cols(), 3);
  EXPECT_EQ(m.nnz(), 3);
  EXPECT_EQ(m.RowNnz(0), 1);
  EXPECT_EQ(m.RowNnz(1), 2);
  EXPECT_EQ(m.RowNnz(2), 0);
}

TEST(SparseMatrixTest, AtLookup) {
  SparseMatrix m = MakeExample();
  EXPECT_FLOAT_EQ(m.At(0, 1), 2.0f);
  EXPECT_FLOAT_EQ(m.At(1, 0), 1.0f);
  EXPECT_FLOAT_EQ(m.At(1, 2), 3.0f);
  EXPECT_FLOAT_EQ(m.At(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(m.At(2, 2), 0.0f);
}

TEST(SparseMatrixTest, DuplicateTripletsSum) {
  SparseMatrix m = SparseMatrix::FromTriplets(
      2, 2, {{0, 0, 1.0f}, {0, 0, 2.5f}, {1, 1, -1.0f}, {1, 1, 1.0f}});
  EXPECT_FLOAT_EQ(m.At(0, 0), 3.5f);
  EXPECT_FLOAT_EQ(m.At(1, 1), 0.0f);
  EXPECT_EQ(m.nnz(), 2) << "duplicates collapse into one stored entry";
}

TEST(SparseMatrixTest, RowEntriesSortedByColumn) {
  SparseMatrix m = SparseMatrix::FromTriplets(
      1, 5, {{0, 4, 1.0f}, {0, 0, 2.0f}, {0, 2, 3.0f}});
  auto row = m.Row(0);
  ASSERT_EQ(row.size(), 3u);
  EXPECT_EQ(row[0].col, 0);
  EXPECT_EQ(row[1].col, 2);
  EXPECT_EQ(row[2].col, 4);
}

TEST(SparseMatrixTest, RowSum) {
  SparseMatrix m = MakeExample();
  EXPECT_DOUBLE_EQ(m.RowSum(0), 2.0);
  EXPECT_DOUBLE_EQ(m.RowSum(1), 4.0);
  EXPECT_DOUBLE_EQ(m.RowSum(2), 0.0);
}

TEST(SparseMatrixTest, MatMulDenseMatchesDense) {
  SparseMatrix m = MakeExample();
  DenseMatrix d(3, 2);
  for (int i = 0; i < 6; ++i) d.data()[i] = static_cast<float>(i + 1);
  DenseMatrix got = m.MatMulDense(d);
  DenseMatrix want = ToDense(m).MatMul(d);
  ASSERT_TRUE(got.SameShape(want));
  for (int64_t i = 0; i < got.size(); ++i) {
    EXPECT_FLOAT_EQ(got.data()[i], want.data()[i]);
  }
}

TEST(SparseMatrixTest, ToDense) {
  SparseMatrix m = MakeExample();
  DenseMatrix d = ToDense(m);
  EXPECT_FLOAT_EQ(d.At(0, 1), 2.0f);
  EXPECT_FLOAT_EQ(d.At(1, 2), 3.0f);
  EXPECT_FLOAT_EQ(d.At(2, 0), 0.0f);
}

TEST(SparseMatrixTest, RowNormalized) {
  SparseMatrix m = MakeExample();
  SparseMatrix n = m.RowNormalized();
  EXPECT_FLOAT_EQ(n.At(0, 1), 1.0f);
  EXPECT_FLOAT_EQ(n.At(1, 0), 0.25f);
  EXPECT_FLOAT_EQ(n.At(1, 2), 0.75f);
  EXPECT_DOUBLE_EQ(n.RowSum(2), 0.0) << "zero rows stay zero";
}

TEST(SparseMatrixTest, AddDisjointAndOverlapping) {
  SparseMatrix a = SparseMatrix::FromTriplets(2, 2, {{0, 0, 1.0f}});
  SparseMatrix b =
      SparseMatrix::FromTriplets(2, 2, {{0, 0, 2.0f}, {1, 1, 5.0f}});
  SparseMatrix c = SparseMatrix::Add(a, b);
  EXPECT_FLOAT_EQ(c.At(0, 0), 3.0f);
  EXPECT_FLOAT_EQ(c.At(1, 1), 5.0f);
  EXPECT_EQ(c.nnz(), 2);
}

TEST(SparseMatrixTest, EmptyMatrix) {
  SparseMatrix m = SparseMatrix::FromTriplets(4, 4, {});
  EXPECT_EQ(m.nnz(), 0);
  for (int64_t r = 0; r < 4; ++r) EXPECT_EQ(m.RowNnz(r), 0);
  DenseMatrix d(4, 3, 1.0f);
  DenseMatrix out = m.MatMulDense(d);
  EXPECT_DOUBLE_EQ(FrobeniusNorm(out), 0.0);
}

}  // namespace
}  // namespace coane

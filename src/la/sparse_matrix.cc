#include "la/sparse_matrix.h"

#include <algorithm>

#include "common/logging.h"

namespace coane {

SparseMatrix SparseMatrix::FromTriplets(int64_t rows, int64_t cols,
                                        std::vector<Triplet> triplets) {
  SparseMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  std::sort(triplets.begin(), triplets.end(),
            [](const Triplet& a, const Triplet& b) {
              return a.row != b.row ? a.row < b.row : a.col < b.col;
            });
  m.row_ptr_.assign(static_cast<size_t>(rows) + 1, 0);
  m.entries_.clear();
  m.entries_.reserve(triplets.size());
  for (size_t i = 0; i < triplets.size();) {
    const Triplet& t = triplets[i];
    COANE_CHECK_GE(t.row, 0);
    COANE_CHECK_LT(t.row, rows);
    COANE_CHECK_GE(t.col, 0);
    COANE_CHECK_LT(t.col, cols);
    float sum = 0.0f;
    size_t j = i;
    while (j < triplets.size() && triplets[j].row == t.row &&
           triplets[j].col == t.col) {
      sum += triplets[j].value;
      ++j;
    }
    m.entries_.push_back({t.col, sum});
    m.row_ptr_[static_cast<size_t>(t.row) + 1]++;
    i = j;
  }
  for (size_t r = 0; r < static_cast<size_t>(rows); ++r) {
    m.row_ptr_[r + 1] += m.row_ptr_[r];
  }
  return m;
}

float SparseMatrix::At(int64_t r, int64_t c) const {
  auto row = Row(r);
  auto it = std::lower_bound(
      row.begin(), row.end(), c,
      [](const SparseEntry& e, int64_t col) { return e.col < col; });
  if (it != row.end() && it->col == c) return it->value;
  return 0.0f;
}

double SparseMatrix::RowSum(int64_t r) const {
  double sum = 0.0;
  for (const SparseEntry& e : Row(r)) sum += e.value;
  return sum;
}

DenseMatrix SparseMatrix::MatMulDense(const DenseMatrix& dense) const {
  COANE_CHECK_EQ(cols_, dense.rows());
  DenseMatrix out(rows_, dense.cols(), 0.0f);
  for (int64_t r = 0; r < rows_; ++r) {
    float* out_row = out.Row(r);
    for (const SparseEntry& e : Row(r)) {
      const float* d_row = dense.Row(e.col);
      for (int64_t j = 0; j < dense.cols(); ++j) {
        out_row[j] += e.value * d_row[j];
      }
    }
  }
  return out;
}

SparseMatrix SparseMatrix::RowNormalized() const {
  SparseMatrix out = *this;
  for (int64_t r = 0; r < rows_; ++r) {
    double sum = RowSum(r);
    if (sum <= 0.0) continue;
    const float inv = static_cast<float>(1.0 / sum);
    for (int64_t i = row_ptr_[static_cast<size_t>(r)];
         i < row_ptr_[static_cast<size_t>(r) + 1]; ++i) {
      out.entries_[static_cast<size_t>(i)].value *= inv;
    }
  }
  return out;
}

SparseMatrix SparseMatrix::Add(const SparseMatrix& a, const SparseMatrix& b) {
  COANE_CHECK_EQ(a.rows(), b.rows());
  COANE_CHECK_EQ(a.cols(), b.cols());
  std::vector<Triplet> triplets;
  triplets.reserve(static_cast<size_t>(a.nnz() + b.nnz()));
  for (int64_t r = 0; r < a.rows(); ++r) {
    for (const SparseEntry& e : a.Row(r)) {
      triplets.push_back({r, e.col, e.value});
    }
    for (const SparseEntry& e : b.Row(r)) {
      triplets.push_back({r, e.col, e.value});
    }
  }
  return FromTriplets(a.rows(), a.cols(), std::move(triplets));
}

}  // namespace coane

#ifndef COANE_TESTS_LA_MATRIX_ORACLES_H_
#define COANE_TESTS_LA_MATRIX_ORACLES_H_

#include <cmath>
#include <cstdint>

#include "la/dense_matrix.h"
#include "la/sparse_matrix.h"

namespace coane {

/// Plain element-by-element forms kept in the test tree: the transpose is
/// the oracle TransposedMatMul/MatMulTransposed are checked against, and
/// the dense copy of a sparse matrix the oracle for its sparse products.

/// Returns the transpose of `m`.
inline DenseMatrix Transposed(const DenseMatrix& m) {
  DenseMatrix out(m.cols(), m.rows());
  for (int64_t i = 0; i < m.rows(); ++i) {
    for (int64_t j = 0; j < m.cols(); ++j) out.At(j, i) = m.At(i, j);
  }
  return out;
}

/// Frobenius norm, summed in double in storage order.
inline double FrobeniusNorm(const DenseMatrix& m) {
  double sum = 0.0;
  for (int64_t i = 0; i < m.size(); ++i) {
    sum += static_cast<double>(m.data()[i]) * m.data()[i];
  }
  return std::sqrt(sum);
}

/// The dense equivalent of `m` (absent entries are +0).
inline DenseMatrix ToDense(const SparseMatrix& m) {
  DenseMatrix out(m.rows(), m.cols(), 0.0f);
  for (int64_t r = 0; r < m.rows(); ++r) {
    for (const SparseEntry& e : m.Row(r)) out.At(r, e.col) = e.value;
  }
  return out;
}

}  // namespace coane

#endif  // COANE_TESTS_LA_MATRIX_ORACLES_H_

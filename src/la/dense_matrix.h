#ifndef COANE_LA_DENSE_MATRIX_H_
#define COANE_LA_DENSE_MATRIX_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"

namespace coane {

/// Row-major dense matrix of single-precision floats. This is the storage
/// type for embeddings, layer weights, and gradients throughout the library.
/// It is a value type: copyable and movable.
class DenseMatrix {
 public:
  DenseMatrix() : rows_(0), cols_(0) {}
  /// Creates a rows x cols matrix filled with `fill`.
  DenseMatrix(int64_t rows, int64_t cols, float fill = 0.0f);

  int64_t rows() const { return rows_; }
  int64_t cols() const { return cols_; }
  int64_t size() const { return rows_ * cols_; }

  float& At(int64_t r, int64_t c) { return data_[static_cast<size_t>(r * cols_ + c)]; }
  float At(int64_t r, int64_t c) const {
    return data_[static_cast<size_t>(r * cols_ + c)];
  }

  /// Raw pointer to the start of row r.
  float* Row(int64_t r) { return data_.data() + r * cols_; }
  const float* Row(int64_t r) const { return data_.data() + r * cols_; }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }

  /// Sets every entry to `value`.
  void Fill(float value);

  /// Fills with Xavier/Glorot uniform samples: U(-b, b) with
  /// b = sqrt(6 / (fan_in + fan_out)); fan dimensions default to the matrix
  /// shape (rows = fan_in, cols = fan_out).
  void XavierInit(Rng* rng);
  void XavierInit(Rng* rng, int64_t fan_in, int64_t fan_out);

  /// Fills with N(mean, stddev) samples.
  void GaussianInit(Rng* rng, float mean, float stddev);

  /// this += alpha * other (same shape required).
  void Axpy(float alpha, const DenseMatrix& other);

  /// this *= alpha.
  void Scale(float alpha);

  /// Returns this * other (rows x other.cols).
  ///
  /// Accumulation-order contract (DESIGN.md section 5): every output element
  /// is one float that starts at +0 and adds this(i,k) * other(k,j) for
  /// ascending k, skipping every term whose this(i,k) == 0 (so a zero never
  /// meets an inf or nan of `other`). Each element is computed wholly inside
  /// one ParallelFor shard, so the product is byte-identical at every thread
  /// count and to the plain row-axpy loop. The kernel holds a 4 x 16 output
  /// tile in registers while k sweeps `other` packed into 16-column panels.
  DenseMatrix MatMul(const DenseMatrix& other) const;

  /// Returns transpose(this) * other (cols x other.cols) without building
  /// the transpose; this is read with a stride. Same contract as MatMul,
  /// with this(k,i) as the skipped-when-zero factor.
  DenseMatrix TransposedMatMul(const DenseMatrix& other) const;

  /// Returns this * transpose(other) (rows x other.rows) without building
  /// the transpose; `other` is transposed panel by panel as it is packed.
  /// Same contract as MatMul.
  DenseMatrix MatMulTransposed(const DenseMatrix& other) const;

  /// Returns a matrix made of the given rows (in order).
  DenseMatrix SelectRows(const std::vector<int64_t>& rows) const;

  bool SameShape(const DenseMatrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

 private:
  int64_t rows_;
  int64_t cols_;
  std::vector<float> data_;
};

}  // namespace coane

#endif  // COANE_LA_DENSE_MATRIX_H_

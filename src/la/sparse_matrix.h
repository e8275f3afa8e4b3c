#ifndef COANE_LA_SPARSE_MATRIX_H_
#define COANE_LA_SPARSE_MATRIX_H_

#include <cstdint>
#include <span>
#include <vector>

#include "la/dense_matrix.h"

namespace coane {

/// One (column, value) entry of a sparse row.
struct SparseEntry {
  int64_t col;
  float value;
};

inline bool operator==(const SparseEntry& a, const SparseEntry& b) {
  return a.col == b.col && a.value == b.value;
}

/// Compressed-sparse-row matrix of floats. Used for high-dimensional binary
/// node attributes, the adjacency matrix, and the co-occurrence matrices
/// D / D^1, all of which are far too sparse to store densely at Table 1's
/// dimensions (e.g. Flickr is 7575 x 12047 attributes).
class SparseMatrix {
 public:
  SparseMatrix() : rows_(0), cols_(0), row_ptr_{0} {}

  /// Builds a rows x cols CSR matrix from unordered (row, col, value)
  /// triplets. Duplicate (row, col) pairs are summed; zero-sum entries are
  /// kept (callers that care can prune).
  struct Triplet {
    int64_t row;
    int64_t col;
    float value;
  };
  static SparseMatrix FromTriplets(int64_t rows, int64_t cols,
                                   std::vector<Triplet> triplets);

  int64_t rows() const { return rows_; }
  int64_t cols() const { return cols_; }
  int64_t nnz() const { return static_cast<int64_t>(entries_.size()); }

  /// Entries of row r, ordered by column.
  std::span<const SparseEntry> Row(int64_t r) const {
    return {entries_.data() + row_ptr_[static_cast<size_t>(r)],
            static_cast<size_t>(row_ptr_[static_cast<size_t>(r) + 1] -
                                row_ptr_[static_cast<size_t>(r)])};
  }

  int64_t RowNnz(int64_t r) const {
    return row_ptr_[static_cast<size_t>(r) + 1] -
           row_ptr_[static_cast<size_t>(r)];
  }

  /// Value at (r, c); 0 when absent. Binary-searches the row.
  float At(int64_t r, int64_t c) const;

  /// Sum of the entries of row r.
  double RowSum(int64_t r) const;

  /// Returns this * dense, a rows() x dense.cols() dense matrix.
  DenseMatrix MatMulDense(const DenseMatrix& dense) const;

  /// Returns a copy with each row scaled to sum to 1 (rows with zero sum are
  /// left as all-zeros). This is the D -> D^N normalization of Sec. 3.3.1.
  SparseMatrix RowNormalized() const;

  /// Element-wise sum of two same-shape sparse matrices
  /// (used for D~ = D^N + D^1).
  static SparseMatrix Add(const SparseMatrix& a, const SparseMatrix& b);

 private:
  int64_t rows_;
  int64_t cols_;
  std::vector<int64_t> row_ptr_;   // size rows_ + 1
  std::vector<SparseEntry> entries_;
};

}  // namespace coane

#endif  // COANE_LA_SPARSE_MATRIX_H_

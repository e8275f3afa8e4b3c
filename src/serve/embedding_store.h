#ifndef COANE_SERVE_EMBEDDING_STORE_H_
#define COANE_SERVE_EMBEDDING_STORE_H_

#include <cstdint>
#include <vector>

#include "la/dense_matrix.h"

namespace coane {
namespace serve {

/// Immutable in-memory embedding table — what one serving generation
/// reads. It holds the matrix `LoadEmbeddings` parsed from the published
/// artifact (row i is node i) plus a table of per-row L2 norms, computed
/// once here so cosine scoring never recomputes them.
///
/// Every snapshot build parses its artifact afresh (the CRC footer is
/// checked before any float is read); nothing is written beside the
/// artifact. Hot-swap replaces the whole snapshot, so a store stays valid
/// for as long as any in-flight query holds its generation.
class EmbeddingStore {
 public:
  /// Takes `embeddings` as the table and computes its norm table.
  explicit EmbeddingStore(DenseMatrix embeddings);

  int64_t count() const { return matrix_.rows(); }
  int64_t dim() const { return matrix_.cols(); }

  /// Row `i`, valid for 0 <= i < count().
  const float* Vector(int64_t i) const { return matrix_.Row(i); }

  /// Precomputed L2 norm of row `i`.
  float Norm(int64_t i) const { return norms_[static_cast<size_t>(i)]; }

  /// The whole table (index construction copies it).
  const DenseMatrix& matrix() const { return matrix_; }

 private:
  DenseMatrix matrix_;
  std::vector<float> norms_;
};

}  // namespace serve
}  // namespace coane

#endif  // COANE_SERVE_EMBEDDING_STORE_H_

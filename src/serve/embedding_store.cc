#include "serve/embedding_store.h"

#include <cmath>
#include <utility>

namespace coane {
namespace serve {

EmbeddingStore::EmbeddingStore(DenseMatrix embeddings)
    : matrix_(std::move(embeddings)) {
  // Sum of squares in double, in row order, rounded once: every cosine
  // score depends on these exact bits.
  norms_.reserve(static_cast<size_t>(count()));
  for (int64_t i = 0; i < count(); ++i) {
    double sq = 0.0;
    const float* row = Vector(i);
    for (int64_t j = 0; j < dim(); ++j) sq += double(row[j]) * row[j];
    norms_.push_back(static_cast<float>(std::sqrt(sq)));
  }
}

}  // namespace serve
}  // namespace coane

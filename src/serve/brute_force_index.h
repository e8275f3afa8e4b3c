#ifndef COANE_SERVE_BRUTE_FORCE_INDEX_H_
#define COANE_SERVE_BRUTE_FORCE_INDEX_H_

#include <memory>
#include <string>
#include <vector>

#include "la/vector_ops.h"
#include "serve/knn_index.h"

namespace coane {
namespace serve {

/// Exact k-NN: scores every stored vector. The scan is parallelized over
/// the global thread pool (deterministic shards, per-shard TopKAccumulator,
/// ordered top-k merge), so results are byte-identical at every --threads
/// value — each vector's score is computed the same way regardless of
/// which shard visits it, and the merge is a total-order selection.
///
/// The scan reads a dimension-major copy of the store built at
/// construction: blocks of kLanes rows, so one vector step scores kLanes
/// rows at once. Each lane repeats DotScore's operation order for its row,
/// so every score is bit-identical to the row-major MetricScore. The copy
/// costs kLanes * ceil(count / kLanes) * dim floats, on top of the store.
///
/// This is the recall=1.0 reference the IVF index is measured against,
/// and the right choice up to a few hundred thousand vectors.
class BruteForceIndex : public KnnIndex {
 public:
  BruteForceIndex(std::shared_ptr<const EmbeddingStore> store,
                  Metric metric);

  Status Search(const float* query, int64_t k, std::vector<Neighbor>* out,
                SearchStats* stats = nullptr,
                const RunContext* ctx = nullptr) const override;

  std::string name() const override { return "exact"; }
  const EmbeddingStore& store() const override { return *store_; }
  Metric metric() const override { return metric_; }

 private:
  std::shared_ptr<const EmbeddingStore> store_;
  Metric metric_;
  /// blocks_[b * dim + j] lane r is row kLanes * b + r, dimension j; the
  /// lanes of the tail block past the last row are zero.
  std::vector<Lanes> blocks_;
};

}  // namespace serve
}  // namespace coane

#endif  // COANE_SERVE_BRUTE_FORCE_INDEX_H_

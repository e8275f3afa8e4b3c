#include "serve/brute_force_index.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/parallel/global_pool.h"
#include "common/parallel/parallel_for.h"

namespace coane {
namespace serve {

namespace {

// q . x for the kLanes rows of one block; lane r holds row r's dot
// product. Each lane runs DotScore's exact operations in DotScore's order
// (even/odd partial sums, an odd dim's last term into the even sum, then
// even + odd), so lane r is bit-identical to DotScore of row r: the lanes
// are rows, never summation terms.
Lanes BlockDot(const float* q, const Lanes* x, int64_t dim) {
  Lanes even = {}, odd = {};
  int64_t j = 0;
  for (; j + 1 < dim; j += 2) {
    even += q[j] * x[j];
    odd += q[j + 1] * x[j + 1];
  }
  if (j < dim) even += q[j] * x[j];
  return even + odd;
}

}  // namespace

BruteForceIndex::BruteForceIndex(
    std::shared_ptr<const EmbeddingStore> store, Metric metric)
    : store_(std::move(store)), metric_(metric) {
  const int64_t n = store_->count();
  const int64_t dim = store_->dim();
  const int64_t num_blocks = (n + kLanes - 1) / kLanes;
  blocks_.assign(static_cast<size_t>(num_blocks * dim), Lanes{});
  for (int64_t i = 0; i < n; ++i) {
    const float* row = store_->Vector(i);
    Lanes* block = &blocks_[static_cast<size_t>(i / kLanes * dim)];
    for (int64_t j = 0; j < dim; ++j) block[j][i % kLanes] = row[j];
  }
}

Status BruteForceIndex::Search(const float* query, int64_t k,
                               std::vector<Neighbor>* out,
                               SearchStats* stats,
                               const RunContext* ctx) const {
  out->clear();
  if (k <= 0) return Status::OK();
  const int64_t n = store_->count();
  const int64_t dim = store_->dim();
  // At most n neighbors exist; clamping here bounds every k-derived
  // allocation (per-shard accumulators, the merge buffer) no matter what
  // k a caller hands in.
  k = std::min(k, n);

  float q_norm = 0.0f;
  if (metric_ == Metric::kCosine) {
    q_norm = std::sqrt(DotScore(query, query, dim));
  }

  ThreadPool* pool = GlobalThreadPool();
  const int64_t num_blocks = (n + kLanes - 1) / kLanes;
  const int64_t num_shards = ElasticShards(pool, num_blocks);
  std::vector<std::vector<Neighbor>> shard_top(
      static_cast<size_t>(num_shards));
  COANE_RETURN_IF_ERROR(ParallelFor(
      pool, ctx, "serve.knn_exact", num_blocks, num_shards,
      [&](int64_t shard, int64_t begin, int64_t end) -> Status {
        TopKAccumulator top(k);
        for (int64_t b = begin; b < end; ++b) {
          const Lanes dots = BlockDot(
              query, &blocks_[static_cast<size_t>(b * dim)], dim);
          // The tail block's padded lanes are never offered.
          const int64_t rows = std::min(kLanes, n - b * kLanes);
          for (int64_t r = 0; r < rows; ++r) {
            const int64_t i = b * kLanes + r;
            top.Offer(i, metric_ == Metric::kDot
                             ? dots[r]
                             : CosineFromDot(dots[r], q_norm,
                                             store_->Norm(i)));
          }
        }
        shard_top[static_cast<size_t>(shard)] = top.SortedTake();
        return Status::OK();
      }));

  // Every shard's local top-k contains its slice's best, so the union
  // contains the global best-k; a total-order selection over it is
  // independent of the shard structure.
  std::vector<Neighbor> merged;
  merged.reserve(static_cast<size_t>(num_shards * k));
  for (const auto& shard : shard_top) {
    merged.insert(merged.end(), shard.begin(), shard.end());
  }
  SelectTopK(&merged, k);
  *out = std::move(merged);

  if (stats != nullptr) {
    stats->vectors_scanned += n;
    stats->lists_probed += 1;
  }
  return Status::OK();
}

}  // namespace serve
}  // namespace coane

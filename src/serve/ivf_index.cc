#include "serve/ivf_index.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "eval/kmeans.h"

namespace coane {
namespace serve {

namespace {

// The quantizer's k-means budget: Lloyd iterations per restart, restarts.
constexpr int kKMeansIterations = 25;
constexpr int kKMeansRestarts = 2;

// Squared L2 distance between `a` and `b`.
double SquaredDistance(const float* a, const float* b, int64_t dim) {
  double sum = 0.0;
  for (int64_t j = 0; j < dim; ++j) {
    const double d = double(a[j]) - b[j];
    sum += d * d;
  }
  return sum;
}

// L2-normalizes `row` in place; zero rows are left untouched.
void NormalizeRow(float* row, int64_t dim) {
  double sq = 0.0;
  for (int64_t j = 0; j < dim; ++j) sq += double(row[j]) * row[j];
  if (sq <= 0.0) return;
  const float inv = static_cast<float>(1.0 / std::sqrt(sq));
  for (int64_t j = 0; j < dim; ++j) row[j] *= inv;
}

}  // namespace

Result<std::unique_ptr<IvfIndex>> IvfIndex::Build(
    std::shared_ptr<const EmbeddingStore> store, Metric metric,
    const IvfConfig& config, const RunContext* ctx) {
  if (config.nlist <= 0 || config.nprobe <= 0) {
    return Status::InvalidArgument("IVF nlist and nprobe must be positive");
  }
  const int64_t n = store->count();
  const int nlist = static_cast<int>(
      std::min<int64_t>(config.nlist, n));

  DenseMatrix points = store->matrix();
  if (metric == Metric::kCosine) {
    for (int64_t i = 0; i < n; ++i) {
      NormalizeRow(points.Row(i), points.cols());
    }
  }

  KMeansConfig kmeans;
  kmeans.max_iterations = kKMeansIterations;
  kmeans.num_restarts = kKMeansRestarts;
  kmeans.seed = config.seed;
  auto clustering = RunKMeans(points, nlist, kmeans, ctx);
  if (!clustering.ok()) return clustering.status();

  auto index = std::unique_ptr<IvfIndex>(new IvfIndex());
  index->store_ = std::move(store);
  index->metric_ = metric;
  index->nprobe_ = std::min(config.nprobe, nlist);
  index->centroids_ = std::move(clustering.value().centroids);
  index->lists_.assign(static_cast<size_t>(nlist), {});
  const auto& assignment = clustering.value().assignment;
  // Rows arrive in id order, so each cell's list is id-sorted already.
  for (int64_t i = 0; i < n; ++i) {
    index->lists_[static_cast<size_t>(assignment[static_cast<size_t>(i)])]
        .push_back(i);
  }
  return index;
}

Status IvfIndex::Search(const float* query, int64_t k,
                        std::vector<Neighbor>* out, SearchStats* stats,
                        const RunContext* ctx) const {
  out->clear();
  if (k <= 0) return Status::OK();
  // Bounds the accumulator's k-sized reservation for any caller-supplied k.
  k = std::min(k, store_->count());
  const int64_t dim = store_->dim();

  // kCosine probes with the normalized query (the quantizer clustered
  // normalized rows); scoring always uses the raw query.
  std::vector<float> probe_query(query, query + dim);
  float q_norm = 0.0f;
  if (metric_ == Metric::kCosine) {
    q_norm = std::sqrt(DotScore(query, query, dim));
    NormalizeRow(probe_query.data(), dim);
  }

  // Rank cells by centroid distance, ties by cell id: a total order, so
  // the probed set is deterministic.
  const int nlist = this->nlist();
  std::vector<std::pair<double, int>> cells(static_cast<size_t>(nlist));
  for (int c = 0; c < nlist; ++c) {
    cells[static_cast<size_t>(c)] = {
        SquaredDistance(probe_query.data(), centroids_.Row(c), dim), c};
  }
  std::sort(cells.begin(), cells.end());

  TopKAccumulator top(k);
  for (int p = 0; p < nprobe_; ++p) {
    COANE_RETURN_IF_STOPPED(ctx, "serve.knn_ivf");
    const auto& list = lists_[static_cast<size_t>(cells[size_t(p)].second)];
    for (const int64_t i : list) {
      top.Offer(i, MetricScore(metric_, query, q_norm, store_->Vector(i),
                               store_->Norm(i), dim));
    }
    if (stats != nullptr) {
      stats->vectors_scanned += static_cast<int64_t>(list.size());
      stats->lists_probed += 1;
    }
  }
  *out = top.SortedTake();
  return Status::OK();
}

}  // namespace serve
}  // namespace coane

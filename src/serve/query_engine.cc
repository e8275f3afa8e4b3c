#include "serve/query_engine.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/parallel/global_pool.h"
#include "common/parallel/parallel_for.h"
#include "eval/link_prediction.h"
#include "graph/graph.h"

namespace coane {
namespace serve {

namespace {

Status CheckRow(const Snapshot& snapshot, int64_t id) {
  if (id < 0 || id >= snapshot.store->count()) {
    return Status::OutOfRange(
        "node id " + std::to_string(id) + " outside [0, " +
        std::to_string(snapshot.store->count()) + ")");
  }
  return Status::OK();
}

// Validates a wire-supplied k before anything sizes a buffer from it:
// negative k is an error, k beyond the store is satisfied by the whole
// store. The clamped k is <= count, so arithmetic like k + 1 cannot
// overflow either.
Result<int64_t> ClampK(const Snapshot& snapshot, int64_t k) {
  if (k < 0) {
    return Status::InvalidArgument("k must be >= 0, got " +
                                   std::to_string(k));
  }
  return std::min(k, snapshot.store->count());
}

}  // namespace

Result<std::vector<Neighbor>> QueryEngine::KnnByIdOnSnapshot(
    const Snapshot& snapshot, int64_t id, int64_t k, bool exclude_self,
    SearchStats* stats, const RunContext* ctx) {
  COANE_RETURN_IF_STOPPED(ctx, "serve.query");
  COANE_RETURN_IF_ERROR(CheckRow(snapshot, id));
  auto clamped_k = ClampK(snapshot, k);
  if (!clamped_k.ok()) return clamped_k.status();
  k = clamped_k.value();
  // Over-fetch by one so dropping the query row still yields k results.
  const int64_t fetch_k = exclude_self ? k + 1 : k;
  std::vector<Neighbor> neighbors;
  COANE_RETURN_IF_ERROR(snapshot.index->Search(
      snapshot.store->Vector(id), fetch_k, &neighbors, stats, ctx));
  if (exclude_self) {
    neighbors.erase(
        std::remove_if(neighbors.begin(), neighbors.end(),
                       [id](const Neighbor& n) { return n.id == id; }),
        neighbors.end());
    if (static_cast<int64_t>(neighbors.size()) > k) {
      neighbors.resize(static_cast<size_t>(k));
    }
  }
  return neighbors;
}

Result<std::shared_ptr<const Snapshot>> QueryEngine::AcquireSnapshot()
    const {
  auto snapshot = registry_->Current();
  if (snapshot == nullptr) {
    return Status::FailedPrecondition("no snapshot has been published yet");
  }
  return snapshot;
}

Result<std::vector<Neighbor>> QueryEngine::KnnById(
    int64_t id, int64_t k, bool exclude_self, SearchStats* stats,
    const RunContext* ctx) const {
  auto snapshot = AcquireSnapshot();
  if (!snapshot.ok()) return snapshot.status();
  return KnnByIdOnSnapshot(*snapshot.value(), id, k, exclude_self, stats,
                           ctx);
}

Result<std::vector<Neighbor>> QueryEngine::KnnByVector(
    const std::vector<float>& query, int64_t k, SearchStats* stats,
    const RunContext* ctx) const {
  auto snapshot = AcquireSnapshot();
  if (!snapshot.ok()) return snapshot.status();
  COANE_RETURN_IF_STOPPED(ctx, "serve.query");
  const auto& snap = *snapshot.value();
  if (static_cast<int64_t>(query.size()) != snap.store->dim()) {
    return Status::InvalidArgument(
        "query has " + std::to_string(query.size()) +
        " components, snapshot dimension is " +
        std::to_string(snap.store->dim()));
  }
  // A NaN component would make every score NaN, and NaN breaks the
  // strict-weak-ordering contract of the neighbor comparator — reject it
  // (and infinities) before it reaches the sort.
  for (size_t j = 0; j < query.size(); ++j) {
    if (!std::isfinite(query[j])) {
      return Status::InvalidArgument(
          "query component " + std::to_string(j) + " is not finite");
    }
  }
  auto clamped_k = ClampK(snap, k);
  if (!clamped_k.ok()) return clamped_k.status();
  std::vector<Neighbor> neighbors;
  COANE_RETURN_IF_ERROR(snap.index->Search(query.data(), clamped_k.value(),
                                           &neighbors, stats, ctx));
  return neighbors;
}

Result<std::vector<std::vector<Neighbor>>> QueryEngine::KnnBatch(
    const std::vector<int64_t>& ids, int64_t k, bool exclude_self,
    SearchStats* stats, const RunContext* ctx) const {
  auto snapshot = AcquireSnapshot();
  if (!snapshot.ok()) return snapshot.status();
  const auto& snap = *snapshot.value();
  const int64_t n = static_cast<int64_t>(ids.size());
  std::vector<std::vector<Neighbor>> results(static_cast<size_t>(n));

  // Queries write disjoint slots, so elastic shards keep the batch
  // deterministic; per-query stats are summed into shard-private
  // accumulators and merged in shard order.
  ThreadPool* pool = GlobalThreadPool();
  const int64_t num_shards = ElasticShards(pool, n);
  std::vector<SearchStats> shard_stats(static_cast<size_t>(num_shards));
  COANE_RETURN_IF_ERROR(ParallelFor(
      pool, ctx, "serve.query_batch", n, num_shards,
      [&](int64_t shard, int64_t begin, int64_t end) -> Status {
        SearchStats* local = &shard_stats[static_cast<size_t>(shard)];
        for (int64_t i = begin; i < end; ++i) {
          COANE_RETURN_IF_STOPPED(ctx, "serve.query_batch");
          auto result = KnnByIdOnSnapshot(
              snap, ids[static_cast<size_t>(i)], k, exclude_self, local,
              /*ctx=*/nullptr);
          if (!result.ok()) return result.status();
          results[static_cast<size_t>(i)] =
              std::move(result).ValueOrDie();
        }
        return Status::OK();
      }));
  if (stats != nullptr) {
    for (const SearchStats& s : shard_stats) {
      stats->vectors_scanned += s.vectors_scanned;
      stats->lists_probed += s.lists_probed;
    }
  }
  return results;
}

Result<std::vector<double>> QueryEngine::ScoreLinksOnSnapshot(
    const Snapshot& snap,
    const std::vector<std::pair<int64_t, int64_t>>& pairs,
    const RunContext* ctx) {
  const int64_t dim = snap.store->dim();

  // Gather the referenced rows into a compact matrix and remap the pairs,
  // then hand them to the link-prediction featurizer — the exact pair
  // representation the offline evaluator trains its classifier on.
  std::vector<int64_t> unique_ids;
  std::vector<std::pair<NodeId, NodeId>> remapped;
  remapped.reserve(pairs.size());
  {
    for (const auto& [u, v] : pairs) {
      COANE_RETURN_IF_ERROR(CheckRow(snap, u));
      COANE_RETURN_IF_ERROR(CheckRow(snap, v));
    }
    // Deterministic compaction: sorted unique ids.
    for (const auto& [u, v] : pairs) {
      unique_ids.push_back(u);
      unique_ids.push_back(v);
    }
    std::sort(unique_ids.begin(), unique_ids.end());
    unique_ids.erase(std::unique(unique_ids.begin(), unique_ids.end()),
                     unique_ids.end());
    auto slot_of = [&](int64_t id) {
      return static_cast<NodeId>(
          std::lower_bound(unique_ids.begin(), unique_ids.end(), id) -
          unique_ids.begin());
    };
    for (const auto& [u, v] : pairs) {
      remapped.emplace_back(slot_of(u), slot_of(v));
    }
  }

  DenseMatrix embeddings(static_cast<int64_t>(unique_ids.size()), dim);
  for (size_t s = 0; s < unique_ids.size(); ++s) {
    std::memcpy(embeddings.Row(static_cast<int64_t>(s)),
                snap.store->Vector(unique_ids[s]),
                static_cast<size_t>(4 * dim));
  }

  COANE_RETURN_IF_STOPPED(ctx, "serve.score_links");
  const DenseMatrix features = HadamardFeatures(embeddings, remapped);

  std::vector<double> scores(pairs.size());
  for (size_t p = 0; p < pairs.size(); ++p) {
    double sum = 0.0;
    const float* row = features.Row(static_cast<int64_t>(p));
    for (int64_t j = 0; j < dim; ++j) sum += row[j];
    if (snap.index->metric() == Metric::kCosine) {
      const double denom = double(snap.store->Norm(pairs[p].first)) *
                           snap.store->Norm(pairs[p].second);
      sum = denom > 0.0 ? sum / denom : 0.0;
    }
    scores[p] = sum;
  }
  return scores;
}

Result<std::vector<float>> QueryEngine::FetchOnSnapshot(
    const Snapshot& snap, int64_t id) {
  COANE_RETURN_IF_ERROR(CheckRow(snap, id));
  const float* row = snap.store->Vector(id);
  return std::vector<float>(row, row + snap.store->dim());
}

}  // namespace serve
}  // namespace coane

#ifndef COANE_SERVE_QUERY_ENGINE_H_
#define COANE_SERVE_QUERY_ENGINE_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/run_context.h"
#include "common/status.h"
#include "serve/snapshot.h"

namespace coane {
namespace serve {

/// Stateless query frontend over a SnapshotRegistry. Each request
/// acquires the live snapshot once at entry and runs entirely against
/// that generation, so a concurrent hot-swap never mixes generations
/// within one request and never invalidates memory a request is reading.
///
/// Every method takes an optional RunContext checked at unit-of-work
/// boundaries (per query in a batch, per shard/list inside a search), so
/// a per-request deadline or a server-wide cancel aborts cleanly with
/// kDeadlineExceeded/kCancelled. All methods are const and thread-safe.
class QueryEngine {
 public:
  /// `registry` must outlive the engine and have a snapshot installed
  /// before the first query (kFailedPrecondition otherwise).
  explicit QueryEngine(const SnapshotRegistry* registry)
      : registry_(registry) {}

  /// k nearest neighbors of stored row `id`. `exclude_self` drops `id`
  /// itself from the result (the common "similar items" shape).
  Result<std::vector<Neighbor>> KnnById(int64_t id, int64_t k,
                                        bool exclude_self = true,
                                        SearchStats* stats = nullptr,
                                        const RunContext* ctx =
                                            nullptr) const;

  /// k nearest neighbors of a free query vector (dim() floats).
  Result<std::vector<Neighbor>> KnnByVector(
      const std::vector<float>& query, int64_t k,
      SearchStats* stats = nullptr, const RunContext* ctx = nullptr) const;

  /// Batched KnnById: one result list per id, parallelized across
  /// queries on the global pool (results are independent per query, so
  /// the batch is deterministic at every thread count). The whole batch
  /// runs against a single snapshot generation.
  Result<std::vector<std::vector<Neighbor>>> KnnBatch(
      const std::vector<int64_t>& ids, int64_t k, bool exclude_self = true,
      SearchStats* stats = nullptr, const RunContext* ctx = nullptr) const;

  /// The live generation (nullptr before the first install).
  std::shared_ptr<const Snapshot> CurrentSnapshot() const {
    return registry_->Current();
  }

  /// The live generation; kFailedPrecondition before the first install.
  /// A caller that must check something on a generation before asking it
  /// (the server's unobserved-node gate) acquires it here once and then
  /// calls the *OnSnapshot forms, so the check and the answer see the
  /// same generation even if a hot-swap lands in between.
  Result<std::shared_ptr<const Snapshot>> AcquireSnapshot() const;

  /// KnnById against an explicit generation.
  static Result<std::vector<Neighbor>> KnnByIdOnSnapshot(
      const Snapshot& snapshot, int64_t id, int64_t k, bool exclude_self,
      SearchStats* stats, const RunContext* ctx);

  /// Pairwise link scores on `snapshot`, reusing the link-prediction edge
  /// featurizer (HadamardFeatures): score(u, v) = sum_j e_u[j] * e_v[j] —
  /// the inner product the classifier consumes — normalized by
  /// |e_u||e_v| for kCosine. One score per input pair, in order.
  static Result<std::vector<double>> ScoreLinksOnSnapshot(
      const Snapshot& snapshot,
      const std::vector<std::pair<int64_t, int64_t>>& pairs,
      const RunContext* ctx);

  /// Copies stored row `id` out of `snapshot`.
  static Result<std::vector<float>> FetchOnSnapshot(const Snapshot& snapshot,
                                                    int64_t id);

 private:
  const SnapshotRegistry* registry_;
};

}  // namespace serve
}  // namespace coane

#endif  // COANE_SERVE_QUERY_ENGINE_H_

#ifndef COANE_SERVE_KNN_INDEX_H_
#define COANE_SERVE_KNN_INDEX_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/run_context.h"
#include "common/status.h"
#include "serve/embedding_store.h"

namespace coane {
namespace serve {

/// Similarity metric of the serving read path. Scores are
/// higher-is-more-similar for both metrics.
enum class Metric {
  kDot,     ///< raw inner product q . v
  kCosine,  ///< q . v / (|q| |v|); zero-norm vectors score 0
};

/// Parses "dot"/"cosine"; InvalidArgument otherwise.
Result<Metric> ParseMetric(const std::string& name);
const char* MetricName(Metric metric);

/// One retrieved neighbor. The ordering contract everywhere in the serve
/// subsystem is (score descending, id ascending) — a *total* order, so
/// results are byte-identical regardless of thread count or shard
/// boundaries.
struct Neighbor {
  int64_t id = 0;
  float score = 0.0f;
};

/// True when `a` ranks strictly before `b` under the serving order.
inline bool BetterNeighbor(const Neighbor& a, const Neighbor& b) {
  if (a.score != b.score) return a.score > b.score;
  return a.id < b.id;
}

/// Per-search work accounting, reported by STATS and by the latency
/// bench's "fraction of vectors scanned" column.
struct SearchStats {
  int64_t vectors_scanned = 0;  ///< rows whose score was computed
  int64_t lists_probed = 0;     ///< IVF: inverted lists visited (exact: 1)
};

/// Bounded best-k accumulator with the deterministic serving order: a
/// size-k heap whose worst element is evicted first, ties broken by id.
/// Each ParallelFor shard owns one; merging shard results is a plain
/// top-k selection over their union, which contains the global top-k by
/// construction.
class TopKAccumulator {
 public:
  explicit TopKAccumulator(int64_t k);

  void Offer(int64_t id, float score);

  /// Extracts the accumulated neighbors sorted best-first. The
  /// accumulator is empty afterwards.
  std::vector<Neighbor> SortedTake();

 private:
  int64_t k_;
  std::vector<Neighbor> heap_;  // max-heap on "worse-than"
};

/// Sorts `candidates` best-first and truncates to k (deterministic merge
/// step used after per-shard accumulation).
void SelectTopK(std::vector<Neighbor>* candidates, int64_t k);

/// q . v over `dim` floats.
float DotScore(const float* q, const float* v, int64_t dim);

/// Cosine score from a dot product and the two precomputed L2 norms;
/// zero-norm vectors score 0.
inline float CosineFromDot(float dot, float q_norm, float v_norm) {
  const float denom = q_norm * v_norm;
  return denom > 0.0f ? dot / denom : 0.0f;
}

/// Metric-dispatched score; `q_norm`/`v_norm` are the precomputed L2
/// norms (only read for kCosine).
float MetricScore(Metric metric, const float* q, float q_norm,
                  const float* v, float v_norm, int64_t dim);

/// Read-only k-nearest-neighbor index over one EmbeddingStore snapshot.
/// Implementations are immutable after construction and safe for
/// concurrent Search calls from many serving threads; they keep the
/// store alive via shared ownership, so a snapshot's table cannot be
/// freed while an index still references it.
class KnnIndex {
 public:
  virtual ~KnnIndex() = default;

  /// Fills `out` with up to k neighbors of `query` (dim() floats),
  /// best-first under the deterministic serving order. `stats` (optional)
  /// receives work accounting; `ctx` (optional) is checked at shard /
  /// list boundaries and aborts the search with the stop status.
  virtual Status Search(const float* query, int64_t k,
                        std::vector<Neighbor>* out,
                        SearchStats* stats = nullptr,
                        const RunContext* ctx = nullptr) const = 0;

  /// "exact" or "ivf" — what INFO and the bench CSV report.
  virtual std::string name() const = 0;

  virtual const EmbeddingStore& store() const = 0;
  virtual Metric metric() const = 0;
};

}  // namespace serve
}  // namespace coane

#endif  // COANE_SERVE_KNN_INDEX_H_

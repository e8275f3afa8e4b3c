#ifndef COANE_SERVE_SNAPSHOT_H_
#define COANE_SERVE_SNAPSHOT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/run_context.h"
#include "common/status.h"
#include "serve/ivf_index.h"
#include "serve/knn_index.h"

namespace coane {
namespace serve {

/// Everything needed to build one serving snapshot from a published
/// embedding artifact.
struct SnapshotOptions {
  Metric metric = Metric::kCosine;
  /// "exact" or "ivf".
  std::string index_kind = "exact";
  IvfConfig ivf;
  /// When non-empty, the embedding artifact must verify against this
  /// manifest (kind "embeddings" — what the trainer records) before a
  /// single byte of it is parsed; any failure rejects the snapshot.
  std::string manifest_path;
};

/// One immutable serving generation: an in-memory store plus the index
/// built over it. Reached only through shared_ptr<const Snapshot>, so an
/// in-flight query keeps its generation alive across any number of
/// hot-swaps; the table is freed when the last query drops it.
struct Snapshot {
  std::shared_ptr<const EmbeddingStore> store;
  std::shared_ptr<const KnnIndex> index;
  uint64_t sequence = 0;
  std::string source_path;

  /// Stream provenance, loaded from the `<source>.pub` sidecar a
  /// dynamic-graph publisher writes (stream/provenance.h). Artifacts
  /// published without a sidecar (static pipelines) serve exactly as
  /// before with has_provenance = false.
  bool has_provenance = false;
  /// Mutation-log position the artifact was trained at; gates installs
  /// (see Install) and is surfaced in INFO/STATS.
  uint64_t log_seq = 0;
  /// Publish wall-clock time; INFO/STATS report the derived snapshot age.
  int64_t published_unix_ms = 0;
  /// Imputation policy the publisher trained under.
  std::string trained_policy;
  /// Node ids whose attribute rows were unobserved at train time, sorted
  /// ascending. Queries *for* these ids answer NotFound (their stored
  /// vectors are pure imputation); they may still appear as neighbors of
  /// observed nodes.
  std::vector<int64_t> unobserved;

  /// True when `id` was unobserved at train time (binary search).
  bool IsUnobserved(int64_t id) const;
};

/// Builds a snapshot from `embeddings_path`, a text embedding file
/// (SaveEmbeddings format), held in memory; nothing is written to disk.
/// Verification order: manifest (when configured), then the file's CRC
/// footer and every row (LoadEmbeddings), then the provenance sidecar,
/// then index construction. Any failure leaves no snapshot behind — the
/// caller's current generation is untouched.
Result<std::shared_ptr<const Snapshot>> BuildSnapshot(
    const std::string& embeddings_path, const SnapshotOptions& options,
    uint64_t sequence, const RunContext* ctx = nullptr);

/// The swap point between the builder and the serving threads. Current()
/// hands out shared ownership of the live generation; Install() swings
/// the pointer atomically (mutex-guarded shared_ptr — wait-free enough
/// for a read path whose queries are microseconds, and TSan-clean).
///
/// Fault point: "serve.swap" (fires in Install before the swap), so
/// tests can prove a failed swap leaves the old generation serving.
class SnapshotRegistry {
 public:
  /// The live snapshot, or nullptr before the first Install.
  std::shared_ptr<const Snapshot> Current() const;

  /// Publishes `snapshot` as the live generation. Queries that already
  /// hold the previous generation finish on it undisturbed. Returns
  /// IoError on an injected "serve.swap" fault, and FailedPrecondition
  /// when `snapshot->sequence` is not newer than the live generation's —
  /// concurrent publishes that finish out of order can never roll the
  /// registry backwards (registry unchanged in both cases). When both
  /// generations carry stream provenance, the mutation-log position is
  /// gated the same way: a snapshot whose log_seq is *behind* the live
  /// one is rejected (equal is allowed — an idempotent republish of the
  /// same log position is legitimate).
  Status Install(std::shared_ptr<const Snapshot> snapshot);

  /// Monotonic sequence numbers for new generations (1, 2, ...).
  uint64_t NextSequence() { return ++sequence_; }

  /// Generations installed so far.
  int64_t swaps() const { return swaps_.load(std::memory_order_relaxed); }

 private:
  mutable std::mutex mu_;
  std::shared_ptr<const Snapshot> current_;
  std::atomic<uint64_t> sequence_{0};
  std::atomic<int64_t> swaps_{0};
};

}  // namespace serve
}  // namespace coane

#endif  // COANE_SERVE_SNAPSHOT_H_

#ifndef COANE_SERVE_IVF_INDEX_H_
#define COANE_SERVE_IVF_INDEX_H_

#include <memory>
#include <string>
#include <vector>

#include "la/dense_matrix.h"
#include "serve/knn_index.h"

namespace coane {
namespace serve {

/// Coarse quantizer configuration. Defaults give ~25% scan fraction on
/// balanced data (nprobe/nlist = 4/16) while keeping recall@10 >= 0.9 on
/// cluster-structured embeddings like CoANE's.
struct IvfConfig {
  int nlist = 16;   ///< number of k-means cells (clamped to the row count)
  int nprobe = 4;   ///< cells scanned per query (clamped to nlist)
  uint64_t seed = 42;
};

/// IVF (inverted-file) approximate k-NN: rows are partitioned into nlist
/// cells by k-means (reusing src/eval/kmeans — the same deterministic
/// Lloyd's the clustering evaluation runs), and a query scans only the
/// nprobe cells whose centroids are nearest, trading recall for a
/// ~nprobe/nlist scan fraction.
///
/// For kCosine the quantizer clusters L2-normalized copies of the rows
/// and probes with the normalized query, so centroid distance tracks
/// angular similarity; for kDot it clusters raw rows (an approximation —
/// maximum-inner-product neighbors of large-norm outliers can land in
/// un-probed cells, which is the usual IVF caveat).
///
/// Determinism: k-means is seeded and thread-count-independent (PR 3),
/// cell membership lists are id-sorted, probe order breaks centroid-
/// distance ties by cell id, and the final merge uses the total serving
/// order — so Search results are byte-identical at every --threads value.
class IvfIndex : public KnnIndex {
 public:
  /// Builds the quantizer and inverted lists. kInvalidArgument for a
  /// non-positive nlist/nprobe; k-means failures propagate.
  static Result<std::unique_ptr<IvfIndex>> Build(
      std::shared_ptr<const EmbeddingStore> store, Metric metric,
      const IvfConfig& config, const RunContext* ctx = nullptr);

  Status Search(const float* query, int64_t k, std::vector<Neighbor>* out,
                SearchStats* stats = nullptr,
                const RunContext* ctx = nullptr) const override;

  std::string name() const override { return "ivf"; }
  const EmbeddingStore& store() const override { return *store_; }
  Metric metric() const override { return metric_; }

  int nlist() const { return static_cast<int>(lists_.size()); }
  int nprobe() const { return nprobe_; }

 private:
  IvfIndex() = default;

  std::shared_ptr<const EmbeddingStore> store_;
  Metric metric_ = Metric::kCosine;
  int nprobe_ = 1;
  DenseMatrix centroids_;                       // nlist x dim
  std::vector<std::vector<int64_t>> lists_;     // id-sorted members per cell
};

}  // namespace serve
}  // namespace coane

#endif  // COANE_SERVE_IVF_INDEX_H_

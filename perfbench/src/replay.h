// Traced replay of CoaneModel::Preprocess and CoaneModel::TrainEpoch.
//
// The replay makes the same sequence of public library calls the model
// makes internally — imputation, walks, contexts, D/D^1, top-k_p pairs,
// the negative sampler, Xavier init, then per batch: encode, negative
// sampling, ParallelBatchObjective, decoder, sharded encoder gradient with
// an ordered merge, Adam — drawing from its own Rng in the model's order.
// Its embeddings must therefore be byte-identical to a CoaneModel trained
// with the same graph, config and epoch count; the benchmark checks that
// before it reports any per-layer number.
#ifndef COANE_PERFBENCH_REPLAY_H_
#define COANE_PERFBENCH_REPLAY_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "core/coane_config.h"
#include "graph/graph.h"
#include "la/dense_matrix.h"
#include "la/sparse_matrix.h"
#include "nn/adam.h"
#include "nn/context_conv.h"
#include "nn/mlp.h"
#include "trace.h"
#include "walk/context_generator.h"
#include "walk/cooccurrence.h"
#include "walk/negative_sampler.h"

namespace perfbench {

/// Work counts of the replay, for reading each layer's time against the
/// paper's cost model. Bytes and flops are computed from tensor shapes,
/// not measured.
struct ReplayCounts {
  int64_t contexts = 0;        // total contexts over all nodes
  int64_t d_nnz = 0;           // non-zeros of the co-occurrence matrix D
  int64_t positive_pairs = 0;  // retained top-k_p pairs
  int64_t negatives_requested = 0;
  int64_t negatives_returned = 0;
  int64_t batches = 0;
  int64_t dz_bytes = 0;           // per batch: n x d' floats
  int64_t grad_buffer_bytes = 0;  // per batch: shard-private encoder grads
  double decoder_flops = 0.0;     // per epoch: 3 matmuls per layer
  int64_t adam_params = 0;        // parameters stepped per batch
};

/// True when every entry of `m` is finite (CoaneModel's numerical-health
/// check on dL/dZ, also the output check on trained embeddings).
bool AllFinite(const coane::DenseMatrix& m);

class ReplayModel {
 public:
  /// `graph` and `tracer` must outlive the replay. Only the paper's
  /// default path is mirrored (attributes and all three losses, top-k_p
  /// positives, normalize(D) + D^1, no gradient clipping); any other
  /// config fails Preprocess with InvalidArgument.
  ReplayModel(const coane::Graph& graph, const coane::CoaneConfig& config,
              Tracer* tracer);

  coane::Status Preprocess();
  coane::Status TrainEpoch();

  const coane::DenseMatrix& embeddings() const { return z_; }
  const ReplayCounts& counts() const { return counts_; }

 private:
  coane::Status TrainBatch(const std::vector<coane::NodeId>& batch);
  void Renew();

  const coane::Graph& graph_;
  coane::CoaneConfig config_;
  Tracer* tracer_;
  coane::Rng rng_;
  ReplayCounts counts_;

  coane::SparseMatrix features_;
  std::unique_ptr<coane::ContextSet> contexts_;
  coane::CooccurrenceMatrices cooccurrence_;
  std::vector<std::vector<coane::PositivePair>> positive_pairs_;
  std::unique_ptr<coane::NegativeSampler> negative_sampler_;
  std::unique_ptr<coane::ContextEncoder> encoder_;
  std::unique_ptr<coane::Mlp> decoder_;
  coane::AdamOptimizer optimizer_;
  coane::DenseMatrix z_;
  std::vector<uint8_t> in_batch_;
};

}  // namespace perfbench

#endif  // COANE_PERFBENCH_REPLAY_H_

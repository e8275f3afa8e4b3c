#ifndef COANE_CORE_OBJECTIVE_H_
#define COANE_CORE_OBJECTIVE_H_

#include <cstdint>
#include <vector>

#include "la/dense_matrix.h"
#include "walk/cooccurrence.h"

namespace coane {

/// The positive (Eq. 2) and contextually negative (Eq. 3) terms of
/// CoANE's objective (Eq. 5), computed over one training batch with
/// gradients accumulated into rows of dZ. Embeddings of nodes outside the
/// batch are read as constants (their rows of dZ are untouched), matching
/// the paper's batch updating scheme where only the sampled nodes'
/// embeddings are refreshed per step. The sequential one-term-at-a-time
/// forms live in the test tree as ParallelBatchObjective's oracles.

/// The positive + negative terms of one batch, as one deterministic
/// parallel computation.
struct BatchLosses {
  double positive = 0.0;
  double negative = 0.0;
};

/// Evaluates Eq. 2 (when `pairs` != nullptr) and Eq. 3 (when `negatives`
/// != nullptr, with `negatives[b]` the pre-sampled negatives of batch[b])
/// over the batch, adding dL/dZ into `dz` and returning the losses.
///
/// The batch is always split into kFixedReductionShards shards — a pure
/// function of the batch, never of the thread count. Each shard
/// accumulates gradients into a private |batch| x d buffer (a gradient may
/// target any batch row via the in-batch terms), and the buffers and loss
/// sums are folded in shard order, so the floating-point result is
/// bit-identical at every --threads value. Negatives are sampled by the
/// caller beforehand to keep the RNG consumption sequence — and with it
/// checkpoint-resume bit-identity — independent of the parallel schedule.
BatchLosses ParallelBatchObjective(
    const DenseMatrix& z,
    const std::vector<std::vector<PositivePair>>* pairs, bool split_lr,
    const std::vector<std::vector<NodeId>>* negatives, float negative_weight,
    const std::vector<NodeId>& batch, const std::vector<uint8_t>& in_batch,
    DenseMatrix* dz);

}  // namespace coane

#endif  // COANE_CORE_OBJECTIVE_H_

#ifndef COANE_DIST_MERGE_H_
#define COANE_DIST_MERGE_H_

#include <vector>

#include "common/status.h"
#include "core/checkpoint.h"
#include "la/dense_matrix.h"

namespace coane {
namespace dist {

/// Element-wise parameter averaging across shard checkpoints — the round
/// barrier of distributed training (DESIGN.md §8). Operates on the parsed
/// matrices (ReadCheckpointFile has already checked every section's
/// bytes), verifying that every shard has the *identical* structure: same
/// matrix count and shapes in encoder and decoder, same Adam slot count
/// and step counters, same epochs_done, decoder presence and data
/// fingerprint. Any disagreement is a poisoned or stale input and fails
/// with kDataLoss / kFailedPrecondition; no merged state is returned.
///
/// Determinism: per element, shard values are sorted before the
/// double-precision summation and the sum is divided by the shard count,
/// so the merged bytes are a pure function of the committed shard value
/// *multiset* — invariant to the order the inputs are passed in, to
/// which worker finished first, and to where it ran. Averaging n
/// identical inputs is bit-exact (n*v is exact in double and the
/// correctly-rounded division returns v); in particular a single input
/// is returned unchanged, which is what makes --shards=1 match
/// single-process training. tests/dist/merge_property_test.cc holds both
/// properties under randomized inputs.
///
/// The merged checkpoint carries `merged_fingerprint` (the plan
/// fingerprint) and an empty rng_state: it is a parameter artifact, not
/// a resumable training state — workers adopt it through
/// CoaneModel::ApplyAveragedState, never LoadCheckpoint.
Result<TrainingCheckpoint> AverageCheckpoints(
    const std::vector<const TrainingCheckpoint*>& shards,
    uint64_t merged_fingerprint);

/// Element-wise average of equally-shaped embedding matrices, same
/// ordering/accumulation contract as AverageCheckpoints.
Result<DenseMatrix> AverageEmbeddings(
    const std::vector<const DenseMatrix*>& shards);

}  // namespace dist
}  // namespace coane

#endif  // COANE_DIST_MERGE_H_

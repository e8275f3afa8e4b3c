#ifndef COANE_TESTS_CORE_SEQUENTIAL_OBJECTIVE_H_
#define COANE_TESTS_CORE_SEQUENTIAL_OBJECTIVE_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "la/dense_matrix.h"
#include "walk/cooccurrence.h"
#include "walk/negative_sampler.h"

namespace coane {

/// Sequential, one-term-at-a-time forms of the positive and negative terms
/// of CoANE's objective (Eq. 5), kept in the test tree as the oracles that
/// ParallelBatchObjective is checked against. Gradients are accumulated
/// into rows of dZ; embeddings of nodes outside the batch are read as
/// constants (their rows of dZ are untouched), matching the paper's batch
/// updating scheme.

/// Positive graph likelihood (Eq. 2):
///   L_pos = - sum_{i in batch} sum_j  D~_ij log sigma(L_i^T R_j)
/// with Z = [L | R] split at embedding_dim/2 when `split_lr` is true. With
/// `split_lr` false this becomes the plain skip-gram similarity of the SG
/// ablation (full-vector dot products).
///
/// `pairs[i]` lists node i's retained positive pairs (top-k_p of D~ for
/// CoANE; all of D for the SG ablation). `in_batch[v]` marks batch
/// membership. Returns the batch loss; adds dL/dZ into `dz`.
double PositiveLikelihoodLoss(
    const DenseMatrix& z,
    const std::vector<std::vector<PositivePair>>& pairs,
    const std::vector<NodeId>& batch, const std::vector<uint8_t>& in_batch,
    bool split_lr, DenseMatrix* dz);

/// Contextually negative sampling loss (Eq. 3):
///   L_neg(v_i) = sum_{j=1..k, v_j ~ P_{V*(v_i)}}  a * (z_i^T z_j)^2
/// Gradients flow to z_i always and to z_j when it is also in the batch.
double ContextualNegativeLoss(const DenseMatrix& z,
                              const std::vector<NodeId>& batch,
                              const std::vector<uint8_t>& in_batch, float a,
                              int k, NegativeSampler* sampler, Rng* rng,
                              DenseMatrix* dz);

}  // namespace coane

#endif  // COANE_TESTS_CORE_SEQUENTIAL_OBJECTIVE_H_

#ifndef COANE_GRAPH_ATTR_IMPUTE_H_
#define COANE_GRAPH_ATTR_IMPUTE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "graph/graph.h"
#include "la/sparse_matrix.h"

namespace coane {

/// How training materializes attribute rows the observation mask marks as
/// missing (see Graph::attr_observed / Graph::missing_attr_cells). The
/// policies follow "Attributed Network Embedding for Incomplete Attributed
/// Networks" (Hou et al.): structure carries attribute information, so a
/// node's unobserved attributes are best estimated from its neighborhood.
enum class MissingAttrPolicy {
  /// Refuse to train on a graph with any missing observation
  /// (kFailedPrecondition naming the counts). For pipelines that must
  /// only ever see complete data.
  kReject,
  /// Leave missing entries at zero. Numerically identical to the
  /// pre-mask behaviour (a sparse matrix's absent cells were already
  /// zeros), hence the default everywhere.
  kZero,
  /// Fill a missing cell with its column's mean over observed cells.
  kMean,
  /// Fill a missing cell with the mean of the node's *observed*
  /// neighbors' cells (Hou et al.'s structure-aware estimate); isolated
  /// or fully-masked neighborhoods fall back to the column mean, then to
  /// zero.
  kNeighbor,
};

/// "reject" / "zero" / "mean" / "neighbor".
const char* MissingAttrPolicyName(MissingAttrPolicy policy);

/// Inverse of MissingAttrPolicyName; kInvalidArgument on anything else.
Result<MissingAttrPolicy> ParseMissingAttrPolicy(const std::string& name);

/// Small accounting block filled by ImputeMissingAttributes.
struct ImputeStats {
  int64_t unobserved_nodes = 0;  ///< whole rows that were imputed
  int64_t missing_cells = 0;     ///< single cells that were imputed
  int64_t filled_entries = 0;    ///< nonzeros written into the result
};

/// Materializes the training attribute matrix from a masked graph.
///
/// Determinism contract: the result is a pure function of
/// (graph, policy) — every imputed value is computed from read-only
/// inputs in a fixed (node-id, column-id) order with double
/// accumulation, so the same masked graph yields byte-identical
/// matrices on any machine, thread count, or call sequence. That is
/// what lets a resumed or sharded run reproduce the exact training
/// input of the run it continues.
///
/// A graph without missing observations is returned unchanged under
/// every policy. kReject fails with kFailedPrecondition when anything
/// is missing. `stats` may be null.
Result<SparseMatrix> ImputeMissingAttributes(const Graph& graph,
                                             MissingAttrPolicy policy,
                                             ImputeStats* stats = nullptr);

/// FNV-1a fingerprint of the observation mask: dimensions, every
/// unobserved node id, every missing cell. Returns 0 for a graph with no
/// missing observations, so complete-data checkpoints keep fingerprint 0
/// and interoperate with pre-mask files. Checkpoints bake this in (see
/// TrainingCheckpoint::data_fingerprint) so a resume against a
/// *differently masked* copy of the data is rejected instead of silently
/// diverging.
uint64_t AttrMaskFingerprint(const Graph& graph);

/// Returns a copy of `graph` with the attribute rows of a deterministic
/// `rate` fraction of nodes dropped into the observation mask — the same
/// per-node decision as the "graph.attr_drop" rate fault
/// (fault::RateDecision(rate, seed, node)), so an in-memory caller (the
/// quality harness' missing-rate sweep) and a loader under
/// COANE_FAULT="graph.attr_drop@p<rate>s<seed>" degrade a dataset
/// identically. rate 0 returns the graph unchanged.
Result<Graph> WithDroppedAttributes(const Graph& graph, double rate,
                                    uint64_t seed);

}  // namespace coane

#endif  // COANE_GRAPH_ATTR_IMPUTE_H_

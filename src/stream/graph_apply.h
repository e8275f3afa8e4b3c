#ifndef COANE_STREAM_GRAPH_APPLY_H_
#define COANE_STREAM_GRAPH_APPLY_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "graph/graph.h"
#include "stream/mutation_log.h"

namespace coane {
namespace stream {

/// What one ApplyMutations call changed: the new log position and chain
/// fingerprint the pipeline commits, plus per-op counts.
struct ApplyDelta {
  int64_t old_num_nodes = 0;
  int64_t new_num_nodes = 0;
  /// Sequence number of the last applied record (the new log position).
  uint64_t last_seq = 0;
  /// Chain fingerprint after folding every applied record (see
  /// FoldMutationFingerprint) — ties the produced graph to the exact log
  /// prefix it came from.
  uint64_t chain_fingerprint = 0;
  int64_t edges_added = 0;
  int64_t edges_removed = 0;
  int64_t edges_reweighted = 0;
  int64_t nodes_added = 0;
  int64_t attr_cells_set = 0;
  int64_t attr_cells_masked = 0;
};

/// Content fingerprint (FNV-1a) of an attributed graph: nodes, edges with
/// weights, attribute triplets, observation mask, missing cells, labels.
/// Two graphs with equal fingerprints are byte-equal as training inputs.
uint64_t GraphFingerprint(const Graph& graph);

/// Folds one mutation into a chain fingerprint. The chain starts at
/// GraphFingerprint(base) and advances per record; `unix_ms` is excluded,
/// so the chain is a pure function of (base graph, mutation payloads) —
/// independent of when records were appended or replayed.
uint64_t FoldMutationFingerprint(uint64_t chain, const Mutation& m);

/// Deterministically folds a mutation batch into `base`, producing the
/// new graph and the change delta. Strict by design — a log that does not
/// match the graph it claims to mutate is corruption, not data:
///
///   edge+ u v w   upserts {u, v} (u, v < n): adds the edge or replaces
///                 its weight; an identical re-add is a no-op
///   edge- u v     removes {u, v}; kFailedPrecondition when absent
///   node+ id l    appends node `id`, which must equal the current node
///                 count; on labeled graphs `l` must be a valid label, on
///                 unlabeled ones -1. On attributed graphs the new row
///                 starts unobserved.
///   attr v j x    sets cell (v, j); the first set on an unobserved row
///                 flips it to observed with every *other* column
///                 individually missing (set cells are knowledge, unset
///                 cells stay unknown). `nan` withdraws the cell's
///                 observation; masking a cell of an unobserved row is a
///                 no-op.
///
/// Sequence numbers must be contiguous; when `expected_first_seq` is
/// non-zero, the batch must start exactly there (the pipeline's replay
/// cursor). `chain_in` seeds the fingerprint chain (pass
/// GraphFingerprint(base) for a fresh chain, or the persisted chain when
/// resuming mid-log). `delta` may be null.
Result<Graph> ApplyMutations(const Graph& base,
                             const std::vector<Mutation>& mutations,
                             uint64_t expected_first_seq, uint64_t chain_in,
                             ApplyDelta* delta);

}  // namespace stream
}  // namespace coane

#endif  // COANE_STREAM_GRAPH_APPLY_H_

#ifndef COANE_STREAM_WALK_STORE_H_
#define COANE_STREAM_WALK_STORE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/run_context.h"
#include "common/status.h"
#include "graph/graph.h"
#include "walk/random_walk.h"

namespace coane {
namespace stream {

/// The persisted walk corpus of one pipeline generation: exactly the
/// walks CoaneModel::Preprocess would generate for (graph, seed), plus
/// the master stream seed needed to regenerate any single walk. Walk w
/// starts at node w / r (start-major), so node growth appends walk ids —
/// existing ids never move, which is what lets invalidation reuse the
/// counter-split RNG per walk id.
struct WalkCorpus {
  uint64_t master = 0;  // the engine draw Preprocess makes for walks
  int num_walks_per_node = 1;
  int walk_length = 80;
  std::vector<Walk> walks;
};

/// Per-update reuse accounting (also the bench_stream headline numbers).
struct WalkUpdateStats {
  int64_t total_walks = 0;
  int64_t reused = 0;    // byte-identical, not regenerated
  int64_t rewalked = 0;  // visited a changed vertex
  int64_t appended = 0;  // new nodes' walks
};

/// Builds the full corpus for `graph` under `seed`: GenerateRandomWalks
/// on Rng(seed), so identical, walk for walk, to what
/// CoaneModel::Preprocess(seed) generates, plus its master (the first
/// engine draw of Rng(seed)). Deterministic at every thread count.
Result<WalkCorpus> BuildWalkCorpus(const Graph& graph, int num_walks_per_node,
                                   int walk_length, uint64_t seed,
                                   const RunContext* ctx = nullptr);

/// Folds a mutation batch into the corpus: a stored walk is re-walked iff
/// it visits a node with `changed[node] != 0` (the exact invalidation
/// rule — every step of an untouched walk saw an unchanged neighborhood,
/// so replaying it is byte-identical); new nodes' walks are appended.
/// `changed` is indexed by new-graph ids (size new_graph.num_nodes()).
/// The result equals BuildWalkCorpus(new_graph, ...) byte for byte.
Status UpdateWalkCorpus(const Graph& new_graph,
                        const std::vector<uint8_t>& changed,
                        WalkCorpus* corpus, WalkUpdateStats* stats = nullptr,
                        const RunContext* ctx = nullptr);

/// Binary, CRC-footed corpus file, written atomically. Fault point:
/// "stream.walk_save".
Status SaveWalkCorpus(const WalkCorpus& corpus, const std::string& path);

/// Reads a corpus written by SaveWalkCorpus; kDataLoss on any CRC or
/// framing failure.
Result<WalkCorpus> LoadWalkCorpus(const std::string& path);

}  // namespace stream
}  // namespace coane

#endif  // COANE_STREAM_WALK_STORE_H_

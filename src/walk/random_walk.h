#ifndef COANE_WALK_RANDOM_WALK_H_
#define COANE_WALK_RANDOM_WALK_H_

#include <vector>

#include "common/rng.h"
#include "common/run_context.h"
#include "common/status.h"
#include "graph/graph.h"

namespace coane {

/// Configuration of the plain weighted random walk of Sec. 3.1: r walks of
/// length l are started from every node; the next step is drawn with
/// probability proportional to edge weight, p(v_j | v_i) = E_ij / sum_j E_ij.
struct RandomWalkConfig {
  int num_walks_per_node = 1;  // r (CoANE uses r = 1)
  int walk_length = 80;        // l
};

/// One walk is a sequence of node ids; walks from isolated nodes contain
/// just the start node.
using Walk = std::vector<NodeId>;

/// Generates r*n weighted random walks (n blocks of r walks, block v
/// starting at node v), in parallel over the global thread pool when one
/// is configured (SetGlobalParallelism). Each walk draws from its own
/// counter-split RNG stream derived from one draw of `rng`, so the corpus
/// is a pure function of the rng state — bit-identical at every thread
/// count. `ctx` (optional) is checked once per walk and charged one work
/// unit per walk; a cancelled/expired run returns the stop status and no
/// walks. Fault point: "walk.generate" (fires as an injected kCancelled,
/// for driving cancellation paths from tests).
Result<std::vector<Walk>> GenerateRandomWalks(const Graph& graph,
                                              const RandomWalkConfig& config,
                                              Rng* rng,
                                              const RunContext* ctx = nullptr);

/// One step of the plain weighted walk: draws v's successor with
/// probability proportional to edge weight, from one rng->Uniform()
/// draw. `v` must have at least one neighbor. GenerateRandomWalks and
/// inductive encoding (EncodeUnseenNode) both step through it.
NodeId RandomWalkStep(const Graph& graph, NodeId v, Rng* rng);

/// Generates node2vec-style second-order biased walks with return parameter
/// p and in-out parameter q (Grover & Leskovec 2016). With p = q = 1 the
/// distribution matches the plain walk above (used for the node2vec
/// baseline; the paper runs node2vec with p = q = 1).
struct BiasedWalkConfig {
  int num_walks_per_node = 10;
  int walk_length = 80;
  double p = 1.0;
  double q = 1.0;
};

Result<std::vector<Walk>> GenerateBiasedWalks(const Graph& graph,
                                              const BiasedWalkConfig& config,
                                              Rng* rng,
                                              const RunContext* ctx = nullptr);

}  // namespace coane

#endif  // COANE_WALK_RANDOM_WALK_H_

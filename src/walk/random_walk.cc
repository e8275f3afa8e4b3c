#include "walk/random_walk.h"

#include <utility>

#include "common/fault_injection.h"
#include "common/parallel/global_pool.h"
#include "common/parallel/parallel_for.h"
#include "common/parallel/rng_split.h"

namespace coane {
namespace {

// Walk `walk_id` of the corpus GenerateRandomWalks draws from `master`:
// starts at `start` and steps from MakeStreamRng(master, walk_id), so it
// depends on no other walk.
Walk GenerateSingleWalk(const Graph& graph, NodeId start, int walk_length,
                        uint64_t master, uint64_t walk_id) {
  Rng walk_rng = MakeStreamRng(master, walk_id);
  Walk walk;
  walk.reserve(static_cast<size_t>(walk_length));
  walk.push_back(start);
  NodeId cur = start;
  while (static_cast<int>(walk.size()) < walk_length) {
    if (graph.Degree(cur) == 0) break;
    cur = RandomWalkStep(graph, cur, &walk_rng);
    walk.push_back(cur);
  }
  return walk;
}

}  // namespace

NodeId RandomWalkStep(const Graph& graph, NodeId v, Rng* rng) {
  auto nbrs = graph.Neighbors(v);
  double total = 0.0;
  for (const NeighborEntry& e : nbrs) total += e.weight;
  double u = rng->Uniform() * total;
  double acc = 0.0;
  for (const NeighborEntry& e : nbrs) {
    acc += e.weight;
    if (u < acc) return e.node;
  }
  return nbrs.back().node;
}

Result<std::vector<Walk>> GenerateRandomWalks(const Graph& graph,
                                              const RandomWalkConfig& config,
                                              Rng* rng,
                                              const RunContext* ctx) {
  if (config.num_walks_per_node <= 0) {
    return Status::InvalidArgument("num_walks_per_node must be positive");
  }
  if (config.walk_length <= 0) {
    return Status::InvalidArgument("walk_length must be positive");
  }
  const int64_t r = config.num_walks_per_node;
  const int64_t total = graph.num_nodes() * r;
  // One independent RNG stream per walk, derived from a single draw of the
  // caller's generator: walk w's steps are a pure function of (master, w),
  // never of which thread ran it or of how many draws other walks made, so
  // the corpus is bit-identical at every --threads value.
  const uint64_t master = rng->engine()();
  std::vector<Walk> walks(static_cast<size_t>(total));
  ThreadPool* pool = GlobalThreadPool();
  COANE_RETURN_IF_ERROR(ParallelFor(
      pool, ctx, "walk.generate", total, ElasticShards(pool, total),
      [&](int64_t, int64_t begin, int64_t end) -> Status {
        for (int64_t w = begin; w < end; ++w) {
          // Unit of work = one walk: a cancel or deadline stops before the
          // next walk starts.
          COANE_RETURN_IF_STOPPED(ctx, "walk.generate");
          if (fault::ShouldFail("walk.generate")) {
            return Status::Cancelled("injected cancel at walk.generate");
          }
          walks[static_cast<size_t>(w)] = GenerateSingleWalk(
              graph, static_cast<NodeId>(w / r), config.walk_length, master,
              static_cast<uint64_t>(w));
        }
        return Status::OK();
      }));
  return walks;
}

Result<std::vector<Walk>> GenerateBiasedWalks(const Graph& graph,
                                              const BiasedWalkConfig& config,
                                              Rng* rng,
                                              const RunContext* ctx) {
  if (config.num_walks_per_node <= 0 || config.walk_length <= 0) {
    return Status::InvalidArgument("walk counts must be positive");
  }
  if (config.p <= 0.0 || config.q <= 0.0) {
    return Status::InvalidArgument("p and q must be positive");
  }
  const double inv_p = 1.0 / config.p;
  const double inv_q = 1.0 / config.q;

  std::vector<Walk> walks;
  walks.reserve(static_cast<size_t>(graph.num_nodes()) *
                static_cast<size_t>(config.num_walks_per_node));
  std::vector<double> weights;
  for (int r = 0; r < config.num_walks_per_node; ++r) {
    for (NodeId start = 0; start < graph.num_nodes(); ++start) {
      COANE_RETURN_IF_STOPPED(ctx, "walk.generate");
      Walk walk;
      walk.reserve(static_cast<size_t>(config.walk_length));
      walk.push_back(start);
      while (static_cast<int>(walk.size()) < config.walk_length) {
        NodeId cur = walk.back();
        auto nbrs = graph.Neighbors(cur);
        if (nbrs.empty()) break;
        if (walk.size() == 1) {
          // First step: plain weighted choice.
          weights.assign(nbrs.size(), 0.0);
          for (size_t i = 0; i < nbrs.size(); ++i) {
            weights[i] = nbrs[i].weight;
          }
        } else {
          // Second-order: bias by distance to the previous node.
          NodeId prev = walk[walk.size() - 2];
          weights.assign(nbrs.size(), 0.0);
          for (size_t i = 0; i < nbrs.size(); ++i) {
            const NodeId x = nbrs[i].node;
            double bias;
            if (x == prev) {
              bias = inv_p;  // return
            } else if (graph.HasEdge(prev, x)) {
              bias = 1.0;    // distance 1 from prev
            } else {
              bias = inv_q;  // explore outward
            }
            weights[i] = nbrs[i].weight * bias;
          }
        }
        const int64_t pick = rng->SampleDiscrete(weights);
        walk.push_back(nbrs[static_cast<size_t>(pick)].node);
      }
      walks.push_back(std::move(walk));
    }
  }
  return walks;
}

}  // namespace coane

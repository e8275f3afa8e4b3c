#include "walk/context_generator.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "common/parallel/global_pool.h"
#include "common/parallel/parallel_for.h"
#include "common/parallel/rng_split.h"
#include "walk/subsampler.h"

namespace coane {

void ContextSet::Add(NodeId v, std::vector<NodeId> context) {
  COANE_CHECK_EQ(static_cast<int>(context.size()), context_size_);
  contexts_[static_cast<size_t>(v)].push_back(std::move(context));
}

int64_t ContextSet::MaxContextsPerNode() const {
  int64_t max_c = 0;
  for (const auto& c : contexts_) {
    max_c = std::max<int64_t>(max_c, static_cast<int64_t>(c.size()));
  }
  return max_c;
}

int64_t ContextSet::TotalContexts() const {
  int64_t total = 0;
  for (const auto& c : contexts_) total += static_cast<int64_t>(c.size());
  return total;
}

Result<ContextSet> GenerateContexts(const std::vector<Walk>& walks,
                                    int64_t num_nodes,
                                    const ContextOptions& options, Rng* rng,
                                    const RunContext* ctx) {
  const int c = options.context_size;
  if (c < 1 || c % 2 == 0) {
    return Status::InvalidArgument("context_size must be odd and >= 1");
  }
  const int half = (c - 1) / 2;

  // Validate ids up front: the frequency pass below indexes by node id.
  for (const Walk& walk : walks) {
    for (NodeId v : walk) {
      if (v < 0 || v >= num_nodes) {
        return Status::OutOfRange("walk contains out-of-range node id");
      }
    }
  }

  const bool subsample = options.subsample_t >= 0.0;
  std::vector<double> freq;
  if (subsample) freq = ComputeNodeFrequencies(walks, num_nodes);

  // One subsampling stream per walk, split from a single draw of `rng`, so
  // each walk's keep/discard decisions are independent of every other
  // walk's — the scanned contexts are bit-identical at every thread count.
  const uint64_t master = rng->engine()();
  const int64_t num_walks = static_cast<int64_t>(walks.size());

  // Shards collect (midst, window) in scan order; the ordered merge below
  // reproduces the sequential walk-major, position-major insertion order.
  struct ShardContexts {
    std::vector<std::pair<NodeId, std::vector<NodeId>>> scanned;
  };
  ThreadPool* pool = GlobalThreadPool();
  const int64_t num_shards = ElasticShards(pool, num_walks);
  std::vector<ShardContexts> shards(static_cast<size_t>(num_shards));

  Status st = ParallelFor(
      pool, ctx, "walk.contexts", num_walks, num_shards,
      [&](int64_t shard, int64_t begin, int64_t end) -> Status {
        ShardContexts& sc = shards[static_cast<size_t>(shard)];
        std::vector<NodeId> window(static_cast<size_t>(c));
        for (int64_t w = begin; w < end; ++w) {
          COANE_RETURN_IF_STOPPED(ctx, "walk.contexts");
          const Walk& walk = walks[static_cast<size_t>(w)];
          Rng walk_rng = MakeStreamRng(master, static_cast<uint64_t>(w));
          const int len = static_cast<int>(walk.size());
          for (int pos = 0; pos < len; ++pos) {
            const NodeId midst = walk[static_cast<size_t>(pos)];
            // The walk's start node always keeps its context (paper:
            // p_sub = 1 for the starting node, guaranteeing >= 1 context
            // per node).
            if (subsample && pos != 0) {
              const double keep = SubsampleKeepProbability(
                  freq[static_cast<size_t>(midst)], options.subsample_t);
              if (!walk_rng.Bernoulli(keep)) continue;
            }
            for (int offset = -half; offset <= half; ++offset) {
              const int idx = pos + offset;
              window[static_cast<size_t>(offset + half)] =
                  (idx >= 0 && idx < len) ? walk[static_cast<size_t>(idx)]
                                          : kPaddingNode;
            }
            sc.scanned.emplace_back(
                midst, std::vector<NodeId>(window.begin(), window.end()));
          }
        }
        return Status::OK();
      });
  if (!st.ok()) return st;

  ContextSet out(num_nodes, c);
  for (ShardContexts& sc : shards) {
    for (auto& [midst, window] : sc.scanned) {
      out.Add(midst, std::move(window));
    }
  }
  return out;
}

}  // namespace coane

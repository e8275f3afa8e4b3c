#include "graph/edge_split.h"

#include <algorithm>
#include <set>
#include <utility>

#include "graph/graph_builder.h"

namespace coane {
namespace {

// Union-find for the spanning-forest selection.
class DisjointSet {
 public:
  explicit DisjointSet(int64_t n) : parent_(static_cast<size_t>(n)) {
    for (size_t i = 0; i < parent_.size(); ++i) {
      parent_[i] = static_cast<int64_t>(i);
    }
  }
  int64_t Find(int64_t x) {
    while (parent_[static_cast<size_t>(x)] != x) {
      parent_[static_cast<size_t>(x)] =
          parent_[static_cast<size_t>(parent_[static_cast<size_t>(x)])];
      x = parent_[static_cast<size_t>(x)];
    }
    return x;
  }
  bool Union(int64_t a, int64_t b) {
    int64_t ra = Find(a), rb = Find(b);
    if (ra == rb) return false;
    parent_[static_cast<size_t>(ra)] = rb;
    return true;
  }

 private:
  std::vector<int64_t> parent_;
};

std::pair<NodeId, NodeId> Canonical(NodeId u, NodeId v) {
  return u < v ? std::make_pair(u, v) : std::make_pair(v, u);
}

}  // namespace

Result<LinkSplit> SplitEdges(const Graph& graph,
                             const EdgeSplitOptions& options, Rng* rng) {
  if (options.val_fraction < 0 || options.test_fraction < 0 ||
      options.val_fraction + options.test_fraction >= 1.0) {
    return Status::InvalidArgument(
        "val+test fractions must be in [0, 1)");
  }
  std::vector<Edge> edges = graph.UndirectedEdges();
  if (edges.empty()) return Status::FailedPrecondition("graph has no edges");
  rng->Shuffle(&edges);

  // Force a spanning forest into train so embedding training sees every
  // node. Shuffled order keeps the forest random.
  std::vector<bool> forced(edges.size(), false);
  DisjointSet ds(graph.num_nodes());
  for (size_t i = 0; i < edges.size(); ++i) {
    if (ds.Union(edges[i].src, edges[i].dst)) forced[i] = true;
  }

  const int64_t m = static_cast<int64_t>(edges.size());
  int64_t want_val = static_cast<int64_t>(options.val_fraction * m);
  int64_t want_test = static_cast<int64_t>(options.test_fraction * m);

  LinkSplit split;
  std::vector<Edge> train_edges;
  for (size_t i = 0; i < edges.size(); ++i) {
    auto pair = Canonical(edges[i].src, edges[i].dst);
    if (!forced[i] &&
        static_cast<int64_t>(split.test_pos.size()) < want_test) {
      split.test_pos.push_back(pair);
    } else if (!forced[i] &&
               static_cast<int64_t>(split.val_pos.size()) < want_val) {
      split.val_pos.push_back(pair);
    } else {
      split.train_pos.push_back(pair);
      train_edges.push_back(edges[i]);
    }
  }

  // Negatives: one per positive, disjoint across the three sets.
  const int64_t total_neg = static_cast<int64_t>(
      split.train_pos.size() + split.val_pos.size() + split.test_pos.size());
  auto negatives = SampleNegativeEdges(graph, total_neg, {}, rng);
  if (!negatives.ok()) return negatives.status();
  auto& negs = negatives.value();
  size_t cursor = 0;
  split.train_neg.assign(negs.begin(),
                         negs.begin() + static_cast<int64_t>(
                                            split.train_pos.size()));
  cursor = split.train_pos.size();
  split.val_neg.assign(
      negs.begin() + static_cast<int64_t>(cursor),
      negs.begin() + static_cast<int64_t>(cursor + split.val_pos.size()));
  cursor += split.val_pos.size();
  split.test_neg.assign(negs.begin() + static_cast<int64_t>(cursor),
                        negs.end());

  GraphBuilder builder(graph.num_nodes());
  builder.AddEdges(train_edges);
  if (graph.num_attributes() > 0) builder.SetAttributes(graph.attributes());
  if (!graph.labels().empty()) builder.SetLabels(graph.labels());
  auto train_graph = std::move(builder).Build();
  if (!train_graph.ok()) return train_graph.status();
  split.train_graph = std::move(train_graph).ValueOrDie();
  return split;
}

Result<std::vector<std::pair<NodeId, NodeId>>> SampleNegativeEdges(
    const Graph& graph, int64_t count,
    const std::vector<std::pair<NodeId, NodeId>>& exclude, Rng* rng) {
  const int64_t n = graph.num_nodes();
  const double possible = static_cast<double>(n) * (n - 1) / 2.0;
  if (static_cast<double>(count + graph.num_edges()) > 0.8 * possible) {
    return Status::InvalidArgument(
        "graph too dense to sample that many negative edges");
  }
  std::set<std::pair<NodeId, NodeId>> used(exclude.begin(), exclude.end());
  std::vector<std::pair<NodeId, NodeId>> out;
  out.reserve(static_cast<size_t>(count));
  int64_t attempts = 0;
  const int64_t max_attempts = count * 200 + 1000;
  while (static_cast<int64_t>(out.size()) < count) {
    if (++attempts > max_attempts) {
      return Status::Internal("negative edge sampling did not converge");
    }
    NodeId u = static_cast<NodeId>(rng->UniformInt(n));
    NodeId v = static_cast<NodeId>(rng->UniformInt(n));
    if (u == v) continue;
    auto pair = Canonical(u, v);
    if (graph.HasEdge(pair.first, pair.second)) continue;
    if (!used.insert(pair).second) continue;
    out.push_back(pair);
  }
  return out;
}

}  // namespace coane

#include "graph/attr_impute.h"

#include <algorithm>
#include <vector>

#include "common/fault_injection.h"
#include "common/fnv.h"
#include "graph/graph_builder.h"

namespace coane {
namespace {

// The per-node missing-cell columns, walked in (node, col) order. The
// cells are sorted by Graph's invariant, so one forward pointer suffices.
class MissingCellCursor {
 public:
  explicit MissingCellCursor(const std::vector<MissingAttrCell>& cells)
      : cells_(cells) {}

  // Columns missing for `node`; `node` must be non-decreasing across calls.
  std::vector<int64_t> Take(NodeId node) {
    std::vector<int64_t> cols;
    while (i_ < cells_.size() && cells_[i_].node < node) ++i_;
    while (i_ < cells_.size() && cells_[i_].node == node) {
      cols.push_back(cells_[i_].col);
      ++i_;
    }
    return cols;
  }

 private:
  const std::vector<MissingAttrCell>& cells_;
  size_t i_ = 0;
};

}  // namespace

const char* MissingAttrPolicyName(MissingAttrPolicy policy) {
  switch (policy) {
    case MissingAttrPolicy::kReject:
      return "reject";
    case MissingAttrPolicy::kZero:
      return "zero";
    case MissingAttrPolicy::kMean:
      return "mean";
    case MissingAttrPolicy::kNeighbor:
      return "neighbor";
  }
  return "zero";
}

Result<MissingAttrPolicy> ParseMissingAttrPolicy(const std::string& name) {
  if (name == "reject") return MissingAttrPolicy::kReject;
  if (name == "zero") return MissingAttrPolicy::kZero;
  if (name == "mean") return MissingAttrPolicy::kMean;
  if (name == "neighbor") return MissingAttrPolicy::kNeighbor;
  return Status::InvalidArgument(
      "unknown missing-attribute policy '" + name +
      "' (want reject, zero, mean, or neighbor)");
}

Result<ImputePlan> ImputePlan::Build(const Graph& graph,
                                     MissingAttrPolicy policy) {
  if (policy != MissingAttrPolicy::kMean &&
      policy != MissingAttrPolicy::kNeighbor) {
    return Status::InvalidArgument(
        "an impute plan needs an imputing policy (mean or neighbor), got '" +
        std::string(MissingAttrPolicyName(policy)) + "'");
  }
  ImputePlan plan;
  plan.graph_ = &graph;
  plan.policy_ = policy;

  const SparseMatrix& x = graph.attributes();
  const int64_t n = x.rows();
  const int64_t d = x.cols();

  // Column means over *observed* cells: the sum of stored values in a
  // column (missing cells store nothing), divided by the number of
  // observed cells — observed nodes minus that column's missing markers.
  // Sequential double accumulation in node order: deterministic.
  plan.col_mean_.assign(static_cast<size_t>(d), 0.0);
  {
    std::vector<int64_t> col_observed(static_cast<size_t>(d), 0);
    int64_t observed_nodes = 0;
    for (int64_t v = 0; v < n; ++v) {
      if (!graph.AttrObserved(static_cast<NodeId>(v))) continue;
      ++observed_nodes;
      for (const SparseEntry& e : x.Row(v)) {
        plan.col_mean_[static_cast<size_t>(e.col)] +=
            static_cast<double>(e.value);
      }
    }
    for (int64_t j = 0; j < d; ++j) {
      col_observed[static_cast<size_t>(j)] = observed_nodes;
    }
    for (const MissingAttrCell& c : graph.missing_attr_cells()) {
      col_observed[static_cast<size_t>(c.col)] -= 1;
    }
    for (int64_t j = 0; j < d; ++j) {
      const int64_t cnt = col_observed[static_cast<size_t>(j)];
      plan.col_mean_[static_cast<size_t>(j)] =
          cnt > 0 ? plan.col_mean_[static_cast<size_t>(j)] / cnt : 0.0;
    }
  }

  // Per-node missing columns: the fill targets of observed rows, and the
  // kNeighbor denominators of neighbors.
  MissingCellCursor cursor(graph.missing_attr_cells());
  plan.missing_cols_.resize(static_cast<size_t>(n));
  for (int64_t v = 0; v < n; ++v) {
    plan.missing_cols_[static_cast<size_t>(v)] =
        cursor.Take(static_cast<NodeId>(v));
  }
  return plan;
}

// Neighbor-mean of column j around v: mean of x(u, j) over observed
// neighbors u that observe column j; falls back to the column mean
// (which may be zero). Neighbors are walked in id order (the CSR is
// sorted), values accumulate in doubles — a pure, order-fixed function
// of the graph.
void ImputePlan::NeighborFill(NodeId v, Scratch* scratch) const {
  const Graph& graph = *graph_;
  const SparseMatrix& x = graph.attributes();
  const int64_t d = x.cols();
  scratch->sum.assign(static_cast<size_t>(d), 0.0);
  scratch->cnt.assign(static_cast<size_t>(d), 0);
  int64_t observed_neighbors = 0;
  for (const NeighborEntry& nb : graph.Neighbors(v)) {
    if (!graph.AttrObserved(nb.node)) continue;
    ++observed_neighbors;
    for (const SparseEntry& e : x.Row(nb.node)) {
      scratch->sum[static_cast<size_t>(e.col)] +=
          static_cast<double>(e.value);
    }
    for (const int64_t j : missing_cols_[static_cast<size_t>(nb.node)]) {
      scratch->cnt[static_cast<size_t>(j)] -= 1;
    }
  }
  for (int64_t j = 0; j < d; ++j) {
    scratch->cnt[static_cast<size_t>(j)] += observed_neighbors;
  }
}

void ImputePlan::AppendRow(NodeId node, Scratch* scratch,
                           std::vector<SparseMatrix::Triplet>* out,
                           int64_t* filled_entries) const {
  const Graph& graph = *graph_;
  const SparseMatrix& x = graph.attributes();
  const int64_t d = x.cols();
  const auto v = static_cast<int64_t>(node);
  if (graph.AttrObserved(node)) {
    for (const SparseEntry& e : x.Row(v)) {
      out->push_back({v, e.col, e.value});
    }
    const std::vector<int64_t>& cols =
        missing_cols_[static_cast<size_t>(node)];
    if (cols.empty()) return;
    if (policy_ == MissingAttrPolicy::kNeighbor) {
      NeighborFill(node, scratch);
    }
    for (const int64_t j : cols) {
      double value = col_mean_[static_cast<size_t>(j)];
      if (policy_ == MissingAttrPolicy::kNeighbor &&
          scratch->cnt[static_cast<size_t>(j)] > 0) {
        value = scratch->sum[static_cast<size_t>(j)] /
                static_cast<double>(scratch->cnt[static_cast<size_t>(j)]);
      }
      if (value != 0.0) {
        out->push_back({v, j, static_cast<float>(value)});
        if (filled_entries != nullptr) ++*filled_entries;
      }
    }
    return;
  }
  // Whole row missing.
  if (policy_ == MissingAttrPolicy::kNeighbor) {
    NeighborFill(node, scratch);
    for (int64_t j = 0; j < d; ++j) {
      const double value =
          scratch->cnt[static_cast<size_t>(j)] > 0
              ? scratch->sum[static_cast<size_t>(j)] /
                    static_cast<double>(
                        scratch->cnt[static_cast<size_t>(j)])
              : col_mean_[static_cast<size_t>(j)];
      if (value != 0.0) {
        out->push_back({v, j, static_cast<float>(value)});
        if (filled_entries != nullptr) ++*filled_entries;
      }
    }
  } else {  // kMean
    for (int64_t j = 0; j < d; ++j) {
      const double value = col_mean_[static_cast<size_t>(j)];
      if (value != 0.0) {
        out->push_back({v, j, static_cast<float>(value)});
        if (filled_entries != nullptr) ++*filled_entries;
      }
    }
  }
}

Result<SparseMatrix> ImputeMissingAttributes(const Graph& graph,
                                             MissingAttrPolicy policy,
                                             ImputeStats* stats) {
  ImputeStats local;
  ImputeStats* s = stats != nullptr ? stats : &local;
  *s = ImputeStats();

  const SparseMatrix& x = graph.attributes();
  const int64_t n = x.rows();
  const int64_t d = x.cols();
  if (d == 0 || !graph.has_missing_attrs()) return x;

  s->unobserved_nodes = graph.num_unobserved_nodes();
  s->missing_cells =
      static_cast<int64_t>(graph.missing_attr_cells().size());

  if (policy == MissingAttrPolicy::kReject) {
    return Status::FailedPrecondition(
        "graph has missing attribute observations (" +
        std::to_string(s->unobserved_nodes) + " unobserved node(s), " +
        std::to_string(s->missing_cells) +
        " missing cell(s)) and the policy is 'reject'");
  }
  if (policy == MissingAttrPolicy::kZero) {
    // Missing cells are absent from the sparse matrix, i.e. already zero.
    return x;
  }

  auto plan = ImputePlan::Build(graph, policy);
  if (!plan.ok()) return plan.status();
  ImputePlan::Scratch scratch;
  std::vector<SparseMatrix::Triplet> triplets;
  for (int64_t v = 0; v < n; ++v) {
    plan.value().AppendRow(static_cast<NodeId>(v), &scratch, &triplets,
                           &s->filled_entries);
  }
  return SparseMatrix::FromTriplets(n, d, std::move(triplets));
}

uint64_t AttrMaskFingerprint(const Graph& graph) {
  if (!graph.has_missing_attrs()) return 0;
  uint64_t h = kFnvBasis;
  h = FnvMixU64(h, static_cast<uint64_t>(graph.num_nodes()));
  h = FnvMixU64(h, static_cast<uint64_t>(graph.num_attributes()));
  for (int64_t v = 0; v < graph.num_nodes(); ++v) {
    if (!graph.AttrObserved(static_cast<NodeId>(v))) {
      h = FnvMixU64(h, static_cast<uint64_t>(v));
    }
  }
  h = FnvMixU64(h, 0xC0A4E0DEULL);  // node/cell section separator
  for (const MissingAttrCell& c : graph.missing_attr_cells()) {
    h = FnvMixU64(h, static_cast<uint64_t>(c.node));
    h = FnvMixU64(h, static_cast<uint64_t>(c.col));
  }
  // 0 is reserved for "no missing data"; remap the (astronomically
  // unlikely) collision so consumers can treat 0 as "complete".
  return h == 0 ? 1 : h;
}

Result<Graph> WithDroppedAttributes(const Graph& graph, double rate,
                                    uint64_t seed) {
  const int64_t n = graph.num_nodes();
  const int64_t d = graph.num_attributes();
  if (rate <= 0.0 || d == 0) return graph;

  std::vector<uint8_t> observed(static_cast<size_t>(n), 1);
  for (int64_t v = 0; v < n; ++v) {
    const bool keep =
        graph.AttrObserved(static_cast<NodeId>(v)) &&
        !fault::RateDecision(rate, seed, static_cast<uint64_t>(v));
    observed[static_cast<size_t>(v)] = keep ? 1 : 0;
  }

  std::vector<SparseMatrix::Triplet> triplets;
  for (int64_t v = 0; v < n; ++v) {
    if (observed[static_cast<size_t>(v)] == 0) continue;
    for (const SparseEntry& e : graph.attributes().Row(v)) {
      triplets.push_back({v, e.col, e.value});
    }
  }
  std::vector<MissingAttrCell> cells;
  for (const MissingAttrCell& c : graph.missing_attr_cells()) {
    if (observed[static_cast<size_t>(c.node)] != 0) cells.push_back(c);
  }

  GraphBuilder builder(n);
  builder.AddEdges(graph.UndirectedEdges());
  builder.SetAttributes(
      SparseMatrix::FromTriplets(n, d, std::move(triplets)));
  builder.SetAttrObserved(std::move(observed));
  builder.SetMissingAttrCells(std::move(cells));
  if (!graph.labels().empty()) builder.SetLabels(graph.labels());
  return std::move(builder).Build();
}

}  // namespace coane

#include "stream/graph_apply.h"

#include <algorithm>
#include <cstring>
#include <map>
#include <set>
#include <utility>

#include "common/fnv.h"
#include "graph/graph_builder.h"

namespace coane {
namespace stream {
namespace {

uint64_t FloatBits(float value) {
  uint32_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

std::string SeqPrefix(const Mutation& m) {
  return "mutation seq " + std::to_string(m.seq) + " (" +
         FormatMutationBody(m) + "): ";
}

}  // namespace

uint64_t GraphFingerprint(const Graph& graph) {
  uint64_t h = kFnvBasis;
  h = FnvMixU64(h, static_cast<uint64_t>(graph.num_nodes()));
  h = FnvMixU64(h, static_cast<uint64_t>(graph.num_attributes()));
  h = FnvMixU64(h, 0xED6E5ULL);  // edge section
  for (const Edge& e : graph.UndirectedEdges()) {
    h = FnvMixU64(h, static_cast<uint64_t>(e.src));
    h = FnvMixU64(h, static_cast<uint64_t>(e.dst));
    h = FnvMixU64(h, FloatBits(e.weight));
  }
  h = FnvMixU64(h, 0xA77ULL);  // attribute section
  for (int64_t v = 0; v < graph.num_nodes(); ++v) {
    for (const SparseEntry& e : graph.attributes().Row(v)) {
      h = FnvMixU64(h, static_cast<uint64_t>(v));
      h = FnvMixU64(h, static_cast<uint64_t>(e.col));
      h = FnvMixU64(h, FloatBits(e.value));
    }
  }
  h = FnvMixU64(h, 0x0B5ULL);  // observation-mask section
  for (int64_t v = 0; v < graph.num_nodes(); ++v) {
    if (!graph.AttrObserved(static_cast<NodeId>(v))) {
      h = FnvMixU64(h, static_cast<uint64_t>(v));
    }
  }
  for (const MissingAttrCell& c : graph.missing_attr_cells()) {
    h = FnvMixU64(h, static_cast<uint64_t>(c.node));
    h = FnvMixU64(h, static_cast<uint64_t>(c.col));
  }
  h = FnvMixU64(h, 0x1ABE1ULL);  // label section
  for (const int32_t label : graph.labels()) {
    h = FnvMixU64(h, static_cast<uint64_t>(static_cast<uint32_t>(label)));
  }
  return h;
}

uint64_t FoldMutationFingerprint(uint64_t chain, const Mutation& m) {
  uint64_t h = chain;
  h = FnvMixU64(h, m.seq);
  h = FnvMixU64(h, static_cast<uint64_t>(m.op));
  h = FnvMixU64(h, static_cast<uint64_t>(m.u));
  h = FnvMixU64(h, static_cast<uint64_t>(m.v));
  h = FnvMixU64(h, FloatBits(m.value));
  h = FnvMixU64(h, static_cast<uint64_t>(m.col));
  h = FnvMixU64(h, static_cast<uint64_t>(static_cast<uint32_t>(m.label)));
  h = FnvMixU64(h, m.masked ? 1 : 0);
  return h;
}

Result<Graph> ApplyMutations(const Graph& base,
                             const std::vector<Mutation>& mutations,
                             uint64_t expected_first_seq, uint64_t chain_in,
                             ApplyDelta* delta) {
  ApplyDelta local;
  ApplyDelta* d = delta != nullptr ? delta : &local;
  *d = ApplyDelta();
  d->old_num_nodes = base.num_nodes();
  d->chain_fingerprint = chain_in;

  int64_t n = base.num_nodes();
  const int64_t dim = base.num_attributes();
  const bool labeled = !base.labels().empty();

  // Mutable working state, keyed for O(log) upserts; every container is
  // rebuilt into a GraphBuilder at the end, so a failed batch leaves no
  // partial graph behind.
  std::map<std::pair<NodeId, NodeId>, float> edges;
  for (const Edge& e : base.UndirectedEdges()) {
    edges[{e.src, e.dst}] = e.weight;
  }
  std::vector<std::map<int64_t, float>> attrs(static_cast<size_t>(n));
  for (int64_t v = 0; v < n; ++v) {
    for (const SparseEntry& e : base.attributes().Row(v)) {
      attrs[static_cast<size_t>(v)][e.col] = e.value;
    }
  }
  std::vector<uint8_t> observed(static_cast<size_t>(n), 1);
  for (int64_t v = 0; v < n; ++v) {
    observed[static_cast<size_t>(v)] =
        base.AttrObserved(static_cast<NodeId>(v)) ? 1 : 0;
  }
  std::set<std::pair<NodeId, int64_t>> missing;
  for (const MissingAttrCell& c : base.missing_attr_cells()) {
    missing.insert({c.node, c.col});
  }
  std::vector<int32_t> labels = base.labels();

  uint64_t prev_seq = 0;
  for (const Mutation& m : mutations) {
    if (prev_seq == 0) {
      if (expected_first_seq != 0 && m.seq != expected_first_seq) {
        return Status::FailedPrecondition(
            SeqPrefix(m) + "batch starts at sequence " +
            std::to_string(m.seq) + " but the graph is at log position " +
            std::to_string(expected_first_seq - 1));
      }
      if (m.seq == 0) {
        return Status::InvalidArgument(SeqPrefix(m) +
                                       "sequence 0 is reserved");
      }
    } else if (m.seq != prev_seq + 1) {
      return Status::DataLoss(SeqPrefix(m) +
                              "sequence gap after " + std::to_string(prev_seq));
    }
    prev_seq = m.seq;

    switch (m.op) {
      case MutationOp::kAddEdge: {
        if (m.u >= n || m.v >= n) {
          return Status::InvalidArgument(SeqPrefix(m) + "endpoint beyond " +
                                         std::to_string(n) + " nodes");
        }
        const auto key = std::minmax(m.u, m.v);
        auto [it, inserted] = edges.insert({{key.first, key.second}, m.value});
        if (inserted) {
          ++d->edges_added;
        } else if (it->second != m.value) {
          it->second = m.value;
          ++d->edges_reweighted;
        }  // else an identical re-add: replay-idempotent no-op
        break;
      }
      case MutationOp::kRemoveEdge: {
        if (m.u >= n || m.v >= n) {
          return Status::InvalidArgument(SeqPrefix(m) + "endpoint beyond " +
                                         std::to_string(n) + " nodes");
        }
        const auto key = std::minmax(m.u, m.v);
        if (edges.erase({key.first, key.second}) == 0) {
          return Status::FailedPrecondition(
              SeqPrefix(m) + "edge does not exist — the log does not match "
              "the graph it claims to mutate");
        }
        ++d->edges_removed;
        break;
      }
      case MutationOp::kAddNode: {
        if (m.u != n) {
          return Status::FailedPrecondition(
              SeqPrefix(m) + "node id must equal the current node count " +
              std::to_string(n));
        }
        if (labeled && (m.label < 0)) {
          return Status::InvalidArgument(
              SeqPrefix(m) + "labeled graph requires a label >= 0");
        }
        if (!labeled && m.label != -1) {
          return Status::InvalidArgument(
              SeqPrefix(m) + "unlabeled graph requires label -1");
        }
        ++n;
        attrs.emplace_back();
        // A new node knows nothing about its attributes yet: the whole
        // row starts unobserved (imputation fills it until attr records
        // arrive). Attribute-free graphs have no mask to maintain.
        observed.push_back(dim > 0 ? 0 : 1);
        if (labeled) labels.push_back(m.label);
        ++d->nodes_added;
        break;
      }
      case MutationOp::kSetAttr: {
        if (dim == 0) {
          return Status::FailedPrecondition(
              SeqPrefix(m) + "graph has no attributes");
        }
        if (m.u >= n) {
          return Status::InvalidArgument(SeqPrefix(m) + "node beyond " +
                                         std::to_string(n) + " nodes");
        }
        if (m.col >= dim) {
          return Status::InvalidArgument(
              SeqPrefix(m) + "column beyond attribute dimension " +
              std::to_string(dim));
        }
        auto& row = attrs[static_cast<size_t>(m.u)];
        if (m.masked) {
          if (observed[static_cast<size_t>(m.u)] == 0) break;  // covered
          row.erase(m.col);
          missing.insert({m.u, m.col});
          ++d->attr_cells_masked;
          break;
        }
        if (observed[static_cast<size_t>(m.u)] == 0) {
          // First observation of this row: set cells are knowledge, every
          // other column stays individually unknown.
          observed[static_cast<size_t>(m.u)] = 1;
          for (int64_t j = 0; j < dim; ++j) {
            if (j != m.col) missing.insert({m.u, j});
          }
        }
        missing.erase({m.u, m.col});
        if (m.value != 0.0f) {
          row[m.col] = m.value;
        } else {
          row.erase(m.col);  // an observed zero is an absent sparse entry
        }
        ++d->attr_cells_set;
        break;
      }
    }
    d->chain_fingerprint = FoldMutationFingerprint(d->chain_fingerprint, m);
    d->last_seq = m.seq;
  }

  GraphBuilder builder(n);
  for (const auto& [key, weight] : edges) {
    builder.AddEdge(key.first, key.second, weight);
  }
  if (dim > 0) {
    std::vector<SparseMatrix::Triplet> triplets;
    for (int64_t v = 0; v < n; ++v) {
      for (const auto& [col, value] : attrs[static_cast<size_t>(v)]) {
        triplets.push_back({v, col, value});
      }
    }
    builder.SetAttributes(SparseMatrix::FromTriplets(n, dim,
                                                     std::move(triplets)));
    builder.SetAttrObserved(observed);
    std::vector<MissingAttrCell> cells;
    cells.reserve(missing.size());
    for (const auto& [node, col] : missing) {
      // Cells of fully-unobserved rows are covered by the node mask and
      // must not be expanded (Graph invariant).
      if (observed[static_cast<size_t>(node)] != 0) cells.push_back({node, col});
    }
    builder.SetMissingAttrCells(std::move(cells));
  }
  if (labeled) builder.SetLabels(labels);
  auto built = std::move(builder).Build();
  if (!built.ok()) return built.status();

  d->new_num_nodes = n;
  return built;
}

}  // namespace stream
}  // namespace coane

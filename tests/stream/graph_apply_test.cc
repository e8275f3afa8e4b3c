// Deterministic mutation application (ctest tier `stream`): op
// semantics including the observation-mask rules, the change delta that
// drives every incremental stage, chain-fingerprint purity (timestamps
// excluded, payloads included) and sequence contiguity.

#include <gtest/gtest.h>

#include <vector>

#include "graph/graph_builder.h"
#include "graph/graph_oracles.h"
#include "stream/graph_apply.h"
#include "stream/mutation_log.h"

namespace coane {
namespace stream {
namespace {

Graph MakePath4() {
  GraphBuilder b(4);
  b.AddEdge(0, 1).AddEdge(1, 2).AddEdge(2, 3);
  return std::move(b).Build().ValueOrDie();
}

Graph MakeAttributed() {
  GraphBuilder b(3);
  b.AddEdge(0, 1).AddEdge(1, 2);
  b.SetAttributes(SparseMatrix::FromTriplets(
      3, 2, {{0, 0, 1.0f}, {1, 1, 2.0f}, {2, 0, 3.0f}}));
  return std::move(b).Build().ValueOrDie();
}

Mutation Mut(MutationOp op, uint64_t seq, NodeId u, NodeId v = 0,
             float value = 1.0f) {
  Mutation m;
  m.op = op;
  m.seq = seq;
  m.u = u;
  m.v = v;
  m.value = value;
  return m;
}

TEST(GraphApplyTest, EdgeUpsertAddRemoveReweight) {
  const Graph base = MakePath4();
  std::vector<Mutation> batch = {
      Mut(MutationOp::kAddEdge, 1, 0, 3, 2.0f),   // add
      Mut(MutationOp::kAddEdge, 2, 0, 1, 5.0f),   // reweight
      Mut(MutationOp::kAddEdge, 3, 1, 2, 1.0f),   // identical re-add: no-op
      Mut(MutationOp::kRemoveEdge, 4, 2, 3),      // remove
  };
  ApplyDelta delta;
  auto applied = ApplyMutations(base, batch, 1, GraphFingerprint(base),
                                &delta);
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  const Graph& g = applied.value();
  EXPECT_TRUE(g.HasEdge(0, 3));
  EXPECT_EQ(EdgeWeight(g, 0, 1), 5.0f);
  EXPECT_EQ(EdgeWeight(g, 1, 2), 1.0f);
  EXPECT_FALSE(g.HasEdge(2, 3));
  EXPECT_EQ(g.num_edges(), 3);

  EXPECT_EQ(delta.edges_added, 1);
  EXPECT_EQ(delta.edges_reweighted, 1);
  EXPECT_EQ(delta.edges_removed, 1);
  EXPECT_EQ(delta.last_seq, 4u);
  // Changed adjacency: 0 and 3 (new edge), 0 and 1 (reweight), 2 and 3
  // (removal). The identical re-add of {1,2} changes nothing but 1 is
  // already in via the reweight.
  EXPECT_EQ(delta.structure_changed, (std::vector<NodeId>{0, 1, 2, 3}));
  EXPECT_TRUE(delta.attrs_changed.empty());
}

TEST(GraphApplyTest, IdenticalReAddDoesNotInvalidate) {
  const Graph base = MakePath4();
  std::vector<Mutation> batch = {Mut(MutationOp::kAddEdge, 1, 1, 2, 1.0f)};
  ApplyDelta delta;
  auto applied = ApplyMutations(base, batch, 1, GraphFingerprint(base),
                                &delta);
  ASSERT_TRUE(applied.ok());
  EXPECT_TRUE(delta.structure_changed.empty());
  EXPECT_EQ(delta.edges_added, 0);
  EXPECT_EQ(delta.edges_reweighted, 0);
}

TEST(GraphApplyTest, RemovingAbsentEdgeIsCorruption) {
  const Graph base = MakePath4();
  std::vector<Mutation> batch = {Mut(MutationOp::kRemoveEdge, 1, 0, 3)};
  auto applied =
      ApplyMutations(base, batch, 1, GraphFingerprint(base), nullptr);
  ASSERT_FALSE(applied.ok());
  EXPECT_EQ(applied.status().code(), StatusCode::kFailedPrecondition);
}

TEST(GraphApplyTest, NodeAppendMustMatchCountAndStartsUnobserved) {
  const Graph base = MakeAttributed();
  {
    std::vector<Mutation> wrong = {Mut(MutationOp::kAddNode, 1, 5)};
    wrong[0].label = -1;
    auto applied =
        ApplyMutations(base, wrong, 1, GraphFingerprint(base), nullptr);
    ASSERT_FALSE(applied.ok());
    EXPECT_EQ(applied.status().code(), StatusCode::kFailedPrecondition);
  }
  std::vector<Mutation> batch = {Mut(MutationOp::kAddNode, 1, 3),
                                 Mut(MutationOp::kAddEdge, 2, 3, 0, 1.0f)};
  batch[0].label = -1;
  ApplyDelta delta;
  auto applied = ApplyMutations(base, batch, 1, GraphFingerprint(base),
                                &delta);
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  const Graph& g = applied.value();
  EXPECT_EQ(g.num_nodes(), 4);
  EXPECT_TRUE(g.HasEdge(3, 0));
  // On an attributed graph the appended row is unobserved knowledge.
  EXPECT_FALSE(g.AttrObserved(3));
  EXPECT_EQ(delta.nodes_added, 1);
  EXPECT_EQ(delta.new_num_nodes, 4);
  // The new node appears in both change sets.
  EXPECT_EQ(delta.structure_changed, (std::vector<NodeId>{0, 3}));
  EXPECT_EQ(delta.attrs_changed, (std::vector<NodeId>{3}));
}

TEST(GraphApplyTest, AttrSetOnUnobservedRowFlipsToObservedWithMissingCols) {
  const Graph base = MakeAttributed();
  std::vector<Mutation> batch = {Mut(MutationOp::kAddNode, 1, 3)};
  batch[0].label = -1;
  Mutation set = Mut(MutationOp::kSetAttr, 2, 3);
  set.col = 1;
  set.value = 0.5f;
  batch.push_back(set);
  auto applied =
      ApplyMutations(base, batch, 1, GraphFingerprint(base), nullptr);
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  const Graph& g = applied.value();
  // The first set is knowledge: the row flips to observed, the *other*
  // column is individually missing (still unknown, not zero).
  EXPECT_TRUE(g.AttrObserved(3));
  ASSERT_EQ(g.missing_attr_cells().size(), 1u);
  EXPECT_EQ(g.missing_attr_cells()[0].node, 3);
  EXPECT_EQ(g.missing_attr_cells()[0].col, 0);
  bool found = false;
  for (const auto& e : g.attributes().Row(3)) {
    if (e.col == 1) {
      EXPECT_EQ(e.value, 0.5f);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(GraphApplyTest, AttrMaskWithdrawsObservation) {
  const Graph base = MakeAttributed();
  Mutation mask = Mut(MutationOp::kSetAttr, 1, 1);
  mask.col = 1;
  mask.masked = true;
  ApplyDelta delta;
  auto applied = ApplyMutations(base, {mask}, 1, GraphFingerprint(base),
                                &delta);
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  const Graph& g = applied.value();
  ASSERT_EQ(g.missing_attr_cells().size(), 1u);
  EXPECT_EQ(g.missing_attr_cells()[0].node, 1);
  EXPECT_EQ(g.missing_attr_cells()[0].col, 1);
  EXPECT_EQ(delta.attr_cells_masked, 1);
  EXPECT_EQ(delta.attrs_changed, (std::vector<NodeId>{1}));
  EXPECT_TRUE(delta.structure_changed.empty());
}

TEST(GraphApplyTest, SequenceMustBeContiguousAndAnchored) {
  const Graph base = MakePath4();
  {
    // Gap inside the batch.
    std::vector<Mutation> batch = {Mut(MutationOp::kAddEdge, 1, 0, 2),
                                   Mut(MutationOp::kAddEdge, 3, 0, 3)};
    auto applied =
        ApplyMutations(base, batch, 1, GraphFingerprint(base), nullptr);
    ASSERT_FALSE(applied.ok());
  }
  {
    // Wrong anchor when the cursor is pinned.
    std::vector<Mutation> batch = {Mut(MutationOp::kAddEdge, 2, 0, 2)};
    auto applied =
        ApplyMutations(base, batch, 1, GraphFingerprint(base), nullptr);
    ASSERT_FALSE(applied.ok());
  }
  {
    // expected_first_seq 0 accepts any start (compacted logs replay).
    std::vector<Mutation> batch = {Mut(MutationOp::kAddEdge, 7, 0, 2),
                                   Mut(MutationOp::kAddEdge, 8, 0, 3)};
    auto applied =
        ApplyMutations(base, batch, 0, GraphFingerprint(base), nullptr);
    EXPECT_TRUE(applied.ok());
  }
}

TEST(GraphApplyTest, ChainFingerprintIsPureAndOrderSensitive) {
  const Graph base = MakePath4();
  const uint64_t seed = GraphFingerprint(base);

  std::vector<Mutation> batch = {Mut(MutationOp::kAddEdge, 1, 0, 2),
                                 Mut(MutationOp::kRemoveEdge, 2, 2, 3)};
  ApplyDelta a;
  ASSERT_TRUE(ApplyMutations(base, batch, 1, seed, &a).ok());

  // Same payloads, different wall clocks: identical chain.
  std::vector<Mutation> restamped = batch;
  restamped[0].unix_ms = 111;
  restamped[1].unix_ms = 999;
  ApplyDelta b;
  ASSERT_TRUE(ApplyMutations(base, restamped, 1, seed, &b).ok());
  EXPECT_EQ(a.chain_fingerprint, b.chain_fingerprint);

  // Different payload: different chain.
  std::vector<Mutation> other = batch;
  other[0].v = 3;
  ApplyDelta c;
  ASSERT_TRUE(ApplyMutations(base, other, 1, seed, &c).ok());
  EXPECT_NE(a.chain_fingerprint, c.chain_fingerprint);

  // Folding record by record equals folding the batch.
  uint64_t chain = seed;
  for (const Mutation& m : batch) chain = FoldMutationFingerprint(chain, m);
  EXPECT_EQ(chain, a.chain_fingerprint);

  // Equal-fingerprint graphs are equal training inputs; a mutated graph
  // fingerprints differently from its base.
  auto replay = ApplyMutations(base, batch, 1, seed, nullptr);
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(GraphFingerprint(replay.value()),
            GraphFingerprint(ApplyMutations(base, batch, 1, seed, nullptr)
                                 .ValueOrDie()));
  EXPECT_NE(GraphFingerprint(replay.value()), seed);
}

}  // namespace
}  // namespace stream
}  // namespace coane

#include "graph/subgraph.h"

#include <gtest/gtest.h>

#include "graph/graph_builder.h"
#include "graph/graph_oracles.h"

namespace coane {
namespace {

Graph MakeExample() {
  // 0-1-2-3 path + 1-3 chord, attributes, labels.
  GraphBuilder b(4);
  b.AddEdge(0, 1).AddEdge(1, 2, 2.0f).AddEdge(2, 3).AddEdge(1, 3);
  b.SetAttributes(SparseMatrix::FromTriplets(
      4, 3, {{0, 0, 1.0f}, {1, 1, 2.0f}, {2, 2, 3.0f}, {3, 0, 4.0f}}));
  b.SetLabels({0, 1, 1, 0});
  return std::move(b).Build().ValueOrDie();
}

TEST(SubgraphTest, KeepsInducedEdgesAndMetadata) {
  Graph g = MakeExample();
  auto sub = BuildInducedSubgraph(g, {3, 1, 2});
  ASSERT_TRUE(sub.ok()) << sub.status().ToString();
  const InducedSubgraph& s = sub.value();
  EXPECT_EQ(s.graph.num_nodes(), 3);
  // Kept edges among {1,2,3}: 1-2, 2-3, 1-3 -> 3 edges.
  EXPECT_EQ(s.graph.num_edges(), 3);
  // New ids follow the keep order: 3->0, 1->1, 2->2.
  EXPECT_EQ(s.new_to_old[0], 3);
  EXPECT_EQ(s.old_to_new[3], 0);
  EXPECT_EQ(s.old_to_new[0], -1) << "dropped node maps to -1";
  // Weight carried: original 1-2 had weight 2 -> new (1,2).
  EXPECT_FLOAT_EQ(EdgeWeight(s.graph, 1, 2), 2.0f);
  // Attribute row of original node 3 -> new row 0.
  EXPECT_FLOAT_EQ(s.graph.attributes().At(0, 0), 4.0f);
  // Labels follow.
  EXPECT_EQ(s.graph.labels(), (std::vector<int32_t>{0, 1, 1}));
}

TEST(SubgraphTest, SingleNodeSubgraph) {
  Graph g = MakeExample();
  auto sub = BuildInducedSubgraph(g, {2});
  ASSERT_TRUE(sub.ok());
  EXPECT_EQ(sub.value().graph.num_nodes(), 1);
  EXPECT_EQ(sub.value().graph.num_edges(), 0);
  EXPECT_FLOAT_EQ(sub.value().graph.attributes().At(0, 2), 3.0f);
}

TEST(SubgraphTest, FullKeepIsIsomorphic) {
  Graph g = MakeExample();
  auto sub = BuildInducedSubgraph(g, {0, 1, 2, 3});
  ASSERT_TRUE(sub.ok());
  EXPECT_EQ(sub.value().graph.num_edges(), g.num_edges());
  EXPECT_EQ(sub.value().graph.labels(), g.labels());
}

TEST(SubgraphTest, Validation) {
  Graph g = MakeExample();
  EXPECT_FALSE(BuildInducedSubgraph(g, {0, 9}).ok());
  EXPECT_FALSE(BuildInducedSubgraph(g, {1, 1}).ok());
  auto empty = BuildInducedSubgraph(g, {});
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty.value().graph.num_nodes(), 0);
}

TEST(SubgraphTest, UnlabeledNoAttributeGraph) {
  GraphBuilder b(3);
  b.AddEdge(0, 1).AddEdge(1, 2);
  Graph g = std::move(b).Build().ValueOrDie();
  auto sub = BuildInducedSubgraph(g, {1, 2});
  ASSERT_TRUE(sub.ok());
  EXPECT_EQ(sub.value().graph.num_edges(), 1);
  EXPECT_TRUE(sub.value().graph.labels().empty());
  EXPECT_EQ(sub.value().graph.num_attributes(), 0);
}

}  // namespace
}  // namespace coane

#include "graph/graph.h"

#include <gtest/gtest.h>

#include "graph/graph_builder.h"
#include "graph/graph_oracles.h"

namespace coane {
namespace {

// A 4-node path 0-1-2-3 plus edge 1-3.
Graph MakeExample() {
  GraphBuilder b(4);
  b.AddEdge(0, 1).AddEdge(1, 2).AddEdge(2, 3).AddEdge(1, 3, 2.0f);
  auto g = std::move(b).Build();
  EXPECT_TRUE(g.ok());
  return std::move(g).ValueOrDie();
}

TEST(GraphTest, CountsAndDegrees) {
  Graph g = MakeExample();
  EXPECT_EQ(g.num_nodes(), 4);
  EXPECT_EQ(g.num_edges(), 4);
  EXPECT_EQ(g.Degree(0), 1);
  EXPECT_EQ(g.Degree(1), 3);
  EXPECT_EQ(g.Degree(2), 2);
  EXPECT_EQ(g.Degree(3), 2);
}

TEST(GraphTest, NeighborsSortedWithWeights) {
  Graph g = MakeExample();
  auto nbrs = g.Neighbors(1);
  ASSERT_EQ(nbrs.size(), 3u);
  EXPECT_EQ(nbrs[0].node, 0);
  EXPECT_EQ(nbrs[1].node, 2);
  EXPECT_EQ(nbrs[2].node, 3);
  EXPECT_FLOAT_EQ(nbrs[2].weight, 2.0f);
}

TEST(GraphTest, HasEdgeSymmetric) {
  Graph g = MakeExample();
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(1, 0));
  EXPECT_TRUE(g.HasEdge(1, 3));
  EXPECT_FALSE(g.HasEdge(0, 3));
  EXPECT_FALSE(g.HasEdge(0, 2));
}

TEST(GraphTest, EdgeWeight) {
  Graph g = MakeExample();
  EXPECT_FLOAT_EQ(EdgeWeight(g, 1, 3), 2.0f);
  EXPECT_FLOAT_EQ(EdgeWeight(g, 3, 1), 2.0f);
  EXPECT_FLOAT_EQ(EdgeWeight(g, 0, 3), 0.0f);
}

TEST(GraphTest, WeightedDegree) {
  Graph g = MakeExample();
  EXPECT_DOUBLE_EQ(g.WeightedDegree(1), 4.0);
  EXPECT_DOUBLE_EQ(g.WeightedDegree(0), 1.0);
}

TEST(GraphTest, Density) {
  Graph g = MakeExample();
  EXPECT_DOUBLE_EQ(g.Density(), 4.0 / 6.0);
}

TEST(GraphTest, UndirectedEdgesEachOnce) {
  Graph g = MakeExample();
  auto edges = g.UndirectedEdges();
  ASSERT_EQ(edges.size(), 4u);
  for (const Edge& e : edges) EXPECT_LT(e.src, e.dst);
}

TEST(GraphBuilderTest, DuplicateEdgesSumWeights) {
  GraphBuilder b(2);
  b.AddEdge(0, 1, 1.0f).AddEdge(1, 0, 2.5f);
  auto g = std::move(b).Build();
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g.value().num_edges(), 1);
  EXPECT_FLOAT_EQ(EdgeWeight(g.value(), 0, 1), 3.5f);
}

TEST(GraphBuilderTest, RejectsSelfLoop) {
  GraphBuilder b(2);
  b.AddEdge(1, 1);
  auto g = std::move(b).Build();
  EXPECT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kInvalidArgument);
}

TEST(GraphBuilderTest, RejectsOutOfRange) {
  GraphBuilder b(2);
  b.AddEdge(0, 5);
  auto g = std::move(b).Build();
  EXPECT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kOutOfRange);
}

TEST(GraphBuilderTest, RejectsNonPositiveWeight) {
  GraphBuilder b(2);
  b.AddEdge(0, 1, 0.0f);
  auto g = std::move(b).Build();
  EXPECT_FALSE(g.ok());
}

TEST(GraphBuilderTest, AttributesAndLabels) {
  GraphBuilder b(3);
  b.AddEdge(0, 1);
  b.SetAttributes(SparseMatrix::FromTriplets(3, 4, {{0, 2, 1.0f}}));
  b.SetLabels({0, 1, 1});
  auto g = std::move(b).Build();
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g.value().num_attributes(), 4);
  EXPECT_EQ(g.value().num_classes(), 2);
  EXPECT_FLOAT_EQ(g.value().attributes().At(0, 2), 1.0f);
}

TEST(GraphBuilderTest, RejectsAttributeRowMismatch) {
  GraphBuilder b(3);
  b.AddEdge(0, 1);
  b.SetAttributes(SparseMatrix::FromTriplets(2, 4, {}));
  auto g = std::move(b).Build();
  EXPECT_FALSE(g.ok());
}

TEST(GraphBuilderTest, RejectsLabelSizeMismatch) {
  GraphBuilder b(3);
  b.AddEdge(0, 1);
  b.SetLabels({0, 1});
  auto g = std::move(b).Build();
  EXPECT_FALSE(g.ok());
}

TEST(GraphBuilderTest, RejectsNegativeLabel) {
  GraphBuilder b(2);
  b.AddEdge(0, 1);
  b.SetLabels({0, -1});
  auto g = std::move(b).Build();
  EXPECT_FALSE(g.ok());
}

TEST(GraphBuilderTest, EmptyGraphIsValid) {
  GraphBuilder b(3);
  auto g = std::move(b).Build();
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g.value().num_nodes(), 3);
  EXPECT_EQ(g.value().num_edges(), 0);
  EXPECT_EQ(g.value().Degree(0), 0);
}

}  // namespace
}  // namespace coane

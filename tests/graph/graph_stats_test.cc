#include "graph/graph_stats.h"

#include <gtest/gtest.h>

#include "graph/graph_builder.h"

namespace coane {
namespace {

Graph MakeTriangleWithTail() {
  // Triangle 0-1-2 plus tail 2-3, isolated node 4.
  GraphBuilder b(5);
  b.AddEdge(0, 1).AddEdge(1, 2).AddEdge(0, 2).AddEdge(2, 3);
  b.SetAttributes(SparseMatrix::FromTriplets(
      5, 3, {{0, 0, 1.0f}, {0, 1, 1.0f}, {1, 0, 1.0f}, {3, 2, 1.0f}}));
  b.SetLabels({0, 0, 0, 1, 1});
  return std::move(b).Build().ValueOrDie();
}

TEST(GraphStatsTest, BasicCounts) {
  GraphStats s = ComputeGraphStats(MakeTriangleWithTail());
  EXPECT_EQ(s.num_nodes, 5);
  EXPECT_EQ(s.num_edges, 4);
  EXPECT_EQ(s.num_attributes, 3);
  EXPECT_EQ(s.num_labels, 2);
  EXPECT_EQ(s.max_degree, 3);
  EXPECT_EQ(s.num_isolated, 1);
  EXPECT_DOUBLE_EQ(s.avg_degree, 8.0 / 5.0);
  EXPECT_DOUBLE_EQ(s.avg_attributes_per_node, 4.0 / 5.0);
  EXPECT_DOUBLE_EQ(s.density, 4.0 / 10.0);
}

TEST(GraphStatsTest, Homophily) {
  GraphStats s = ComputeGraphStats(MakeTriangleWithTail());
  // Edges: (0,1)s (1,2)s (0,2)s (2,3)x -> 3/4 same-label.
  EXPECT_DOUBLE_EQ(s.label_homophily, 0.75);
}

TEST(GraphStatsTest, HomophilyUnlabeledIsMinusOne) {
  GraphBuilder b(3);
  b.AddEdge(0, 1);
  Graph g = std::move(b).Build().ValueOrDie();
  EXPECT_DOUBLE_EQ(ComputeGraphStats(g).label_homophily, -1.0);
}

TEST(ClusteringCoefficientTest, Triangle) {
  GraphBuilder b(3);
  b.AddEdge(0, 1).AddEdge(1, 2).AddEdge(0, 2);
  Graph g = std::move(b).Build().ValueOrDie();
  EXPECT_DOUBLE_EQ(GlobalClusteringCoefficient(g), 1.0);
}

TEST(ClusteringCoefficientTest, Star) {
  GraphBuilder b(4);
  b.AddEdge(0, 1).AddEdge(0, 2).AddEdge(0, 3);
  Graph g = std::move(b).Build().ValueOrDie();
  EXPECT_DOUBLE_EQ(GlobalClusteringCoefficient(g), 0.0);
}

TEST(ClusteringCoefficientTest, TriangleWithTail) {
  Graph g = MakeTriangleWithTail();
  // Wedges: node0: C(2,2)=1, node1: 1, node2: C(3,2)=3, node3: 0 -> 5.
  // Closed wedges: triangle closes one wedge at each of 0,1,2 -> 3.
  EXPECT_DOUBLE_EQ(GlobalClusteringCoefficient(g), 3.0 / 5.0);
}

TEST(ConnectedComponentsTest, CountsComponents) {
  Graph g = MakeTriangleWithTail();
  EXPECT_EQ(CountConnectedComponents(g), 2);  // {0,1,2,3} and {4}
  GraphBuilder b(6);
  b.AddEdge(0, 1).AddEdge(2, 3).AddEdge(4, 5);
  Graph h = std::move(b).Build().ValueOrDie();
  EXPECT_EQ(CountConnectedComponents(h), 3);
}

}  // namespace
}  // namespace coane

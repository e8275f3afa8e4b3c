#include "datasets/attributed_sbm.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "graph/graph_stats.h"

namespace coane {
namespace {

AttributedSbmConfig SmallConfig() {
  AttributedSbmConfig c;
  c.num_nodes = 300;
  c.num_classes = 3;
  c.num_attributes = 120;
  c.circles_per_class = 3;
  c.avg_degree = 8.0;
  c.seed = 7;
  return c;
}

TEST(AttributedSbmTest, ShapeMatchesConfig) {
  auto net = GenerateAttributedSbm(SmallConfig());
  ASSERT_TRUE(net.ok()) << net.status().ToString();
  const Graph& g = net.value().graph;
  EXPECT_EQ(g.num_nodes(), 300);
  EXPECT_EQ(g.num_attributes(), 120);
  EXPECT_EQ(g.num_classes(), 3);
  // Target edges = 300*8/2 = 1200; allow sampling shortfall.
  EXPECT_GE(g.num_edges(), 1000);
  EXPECT_LE(g.num_edges(), 1200);
}

TEST(AttributedSbmTest, DeterministicGivenSeed) {
  auto a = GenerateAttributedSbm(SmallConfig()).ValueOrDie();
  auto b = GenerateAttributedSbm(SmallConfig()).ValueOrDie();
  EXPECT_EQ(a.graph.num_edges(), b.graph.num_edges());
  EXPECT_EQ(a.graph.labels(), b.graph.labels());
  EXPECT_EQ(a.graph.UndirectedEdges(), b.graph.UndirectedEdges());
}

TEST(AttributedSbmTest, DifferentSeedsDiffer) {
  AttributedSbmConfig c = SmallConfig();
  auto a = GenerateAttributedSbm(c).ValueOrDie();
  c.seed = 99;
  auto b = GenerateAttributedSbm(c).ValueOrDie();
  EXPECT_NE(a.graph.UndirectedEdges(), b.graph.UndirectedEdges());
}

TEST(AttributedSbmTest, LabelsAreHomophilous) {
  auto net = GenerateAttributedSbm(SmallConfig()).ValueOrDie();
  GraphStats stats = ComputeGraphStats(net.graph);
  // intra_circle + intra_class = 0.85 of sampled edges stay in class; the
  // uniform remainder hits the same class 1/3 of the time.
  EXPECT_GT(stats.label_homophily, 0.7);
}

TEST(AttributedSbmTest, EveryClassRepresented) {
  auto net = GenerateAttributedSbm(SmallConfig()).ValueOrDie();
  std::vector<int64_t> hist(static_cast<size_t>(net.graph.num_classes()), 0);
  for (int32_t l : net.graph.labels()) hist[static_cast<size_t>(l)]++;
  ASSERT_EQ(hist.size(), 3u);
  for (int64_t count : hist) EXPECT_GT(count, 0);
}

TEST(AttributedSbmTest, EveryNodeHasAnAttribute) {
  auto net = GenerateAttributedSbm(SmallConfig()).ValueOrDie();
  for (NodeId v = 0; v < net.graph.num_nodes(); ++v) {
    EXPECT_GE(net.graph.attributes().RowNnz(v), 1)
        << "node " << v << " has an all-zero attribute row";
  }
}

TEST(AttributedSbmTest, CirclesBelongToTheirClass) {
  auto net = GenerateAttributedSbm(SmallConfig()).ValueOrDie();
  ASSERT_EQ(net.circle_members.size(), 9u);
  for (size_t c = 0; c < net.circle_members.size(); ++c) {
    for (NodeId v : net.circle_members[c]) {
      EXPECT_EQ(net.graph.labels()[static_cast<size_t>(v)],
                net.circle_class[c]);
    }
  }
}

TEST(AttributedSbmTest, CircleAttributesDistinctWithinCircle) {
  auto net = GenerateAttributedSbm(SmallConfig()).ValueOrDie();
  for (const auto& attrs : net.circle_attributes) {
    EXPECT_EQ(attrs.size(), 8u);
    std::set<int64_t> unique(attrs.begin(), attrs.end());
    EXPECT_EQ(unique.size(), attrs.size())
        << "a circle must not own the same attribute twice";
  }
}

TEST(AttributedSbmTest, CircleAttributePoolOverlapsAcrossClasses) {
  // With a shared pool fraction < 1, some topic attribute should be owned
  // by circles of at least two different classes — attributes alone must
  // stay ambiguous about the label.
  AttributedSbmConfig c = SmallConfig();
  c.circle_attr_pool_fraction = 0.4;
  auto net = GenerateAttributedSbm(c).ValueOrDie();
  std::map<int64_t, std::set<int32_t>> attr_classes;
  for (size_t circle = 0; circle < net.circle_attributes.size(); ++circle) {
    for (int64_t a : net.circle_attributes[circle]) {
      attr_classes[a].insert(net.circle_class[circle]);
    }
  }
  bool cross_class_shared = false;
  for (const auto& [attr, classes] : attr_classes) {
    if (classes.size() >= 2) cross_class_shared = true;
  }
  EXPECT_TRUE(cross_class_shared);
}

TEST(AttributedSbmTest, PoolFractionValidated) {
  AttributedSbmConfig c = SmallConfig();
  c.circle_attr_pool_fraction = 0.0;
  EXPECT_FALSE(GenerateAttributedSbm(c).ok());
  c.circle_attr_pool_fraction = 1.5;
  EXPECT_FALSE(GenerateAttributedSbm(c).ok());
}

TEST(AttributedSbmTest, CircleMembersShareTopicAttributes) {
  // Members of a circle must express its topic attributes far more often
  // than non-members do.
  auto net = GenerateAttributedSbm(SmallConfig()).ValueOrDie();
  const auto& x = net.graph.attributes();
  double member_rate_sum = 0.0, nonmember_rate_sum = 0.0;
  int circles_counted = 0;
  for (size_t c = 0; c < net.circle_members.size(); ++c) {
    const auto& members = net.circle_members[c];
    if (members.empty()) continue;
    std::set<NodeId> member_set(members.begin(), members.end());
    int64_t member_hits = 0, nonmember_hits = 0;
    int64_t member_cells = 0, nonmember_cells = 0;
    for (NodeId v = 0; v < net.graph.num_nodes(); ++v) {
      const bool is_member = member_set.count(v) > 0;
      for (int64_t a : net.circle_attributes[c]) {
        const bool has = x.At(v, a) > 0.0f;
        if (is_member) {
          ++member_cells;
          member_hits += has;
        } else {
          ++nonmember_cells;
          nonmember_hits += has;
        }
      }
    }
    member_rate_sum +=
        static_cast<double>(member_hits) / static_cast<double>(member_cells);
    nonmember_rate_sum += static_cast<double>(nonmember_hits) /
                          static_cast<double>(nonmember_cells);
    ++circles_counted;
  }
  const double member_rate = member_rate_sum / circles_counted;
  const double nonmember_rate = nonmember_rate_sum / circles_counted;
  EXPECT_GT(member_rate, 0.35);
  EXPECT_LT(nonmember_rate, 0.2);
  EXPECT_GT(member_rate, 2.5 * nonmember_rate);
}

TEST(AttributedSbmTest, CirclesAreDenserThanBackground) {
  auto net = GenerateAttributedSbm(SmallConfig()).ValueOrDie();
  const Graph& g = net.graph;
  double intra_density_sum = 0.0;
  int counted = 0;
  for (const auto& members : net.circle_members) {
    if (members.size() < 2) continue;
    int64_t intra = 0;
    for (size_t i = 0; i < members.size(); ++i) {
      for (size_t j = i + 1; j < members.size(); ++j) {
        if (g.HasEdge(members[i], members[j])) ++intra;
      }
    }
    const double possible =
        static_cast<double>(members.size()) * (members.size() - 1) / 2.0;
    intra_density_sum += static_cast<double>(intra) / possible;
    ++counted;
  }
  const double circle_density = intra_density_sum / counted;
  EXPECT_GT(circle_density, 3.0 * g.Density())
      << "planted circles must be much denser than the whole graph";
}

TEST(AttributedSbmTest, InvalidConfigsRejected) {
  AttributedSbmConfig c = SmallConfig();
  c.num_nodes = 1;
  EXPECT_FALSE(GenerateAttributedSbm(c).ok());
  c = SmallConfig();
  c.avg_degree = 0.0;
  EXPECT_FALSE(GenerateAttributedSbm(c).ok());
  c = SmallConfig();
  c.intra_circle_fraction = 0.8;
  c.intra_class_fraction = 0.4;
  EXPECT_FALSE(GenerateAttributedSbm(c).ok());
  c = SmallConfig();
  c.num_attributes = 5;  // too few for 9 circles * 8 attrs + 3*6
  EXPECT_FALSE(GenerateAttributedSbm(c).ok());
}

}  // namespace
}  // namespace coane

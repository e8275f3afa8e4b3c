// The deterministic imputation stage and its provenance plumbing:
// policy parsing, the per-policy fill values (zero / column mean /
// observed-neighbor mean with documented fallbacks), the mask
// fingerprint that identifies a (mask, dimensions) pair, the in-memory
// WithDroppedAttributes degrader, and the checkpoint data-fingerprint
// gate that refuses to resume across differently-masked inputs.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "common/fault_injection.h"
#include "core/coane_model.h"
#include "graph/attr_impute.h"
#include "graph/graph_builder.h"
#include "la/matrix_oracles.h"
#include "quality/quality_harness.h"
#include "quality/substrate.h"

namespace coane {
namespace {

// Path graph 0-1-2-3 with d=2 attributes:
//   node 0: (1, 2)   observed
//   node 1: (?, 4)   observed node, masked cell (1,0)
//   node 2: (3, 6)   observed
//   node 3: unobserved row
// Column means over observed cells: col0 = (1+3)/2 = 2, col1 = (2+4+6)/3 = 4.
Graph DegradedPathGraph() {
  GraphBuilder b(4);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(2, 3);
  b.SetAttributes(SparseMatrix::FromTriplets(
      4, 2,
      {{0, 0, 1.0f}, {0, 1, 2.0f}, {1, 1, 4.0f}, {2, 0, 3.0f}, {2, 1, 6.0f}}));
  b.SetAttrObserved({1, 1, 1, 0});
  b.SetMissingAttrCells({{1, 0}});
  auto g = std::move(b).Build();
  EXPECT_TRUE(g.ok()) << g.status().ToString();
  return std::move(g).ValueOrDie();
}

Graph CompletePathGraph() {
  GraphBuilder b(4);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(2, 3);
  b.SetAttributes(SparseMatrix::FromTriplets(
      4, 2,
      {{0, 0, 1.0f}, {0, 1, 2.0f}, {1, 1, 4.0f}, {2, 0, 3.0f}, {2, 1, 6.0f}}));
  auto g = std::move(b).Build();
  EXPECT_TRUE(g.ok()) << g.status().ToString();
  return std::move(g).ValueOrDie();
}

bool SameDense(const SparseMatrix& a, const SparseMatrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  const DenseMatrix da = ToDense(a);
  const DenseMatrix db = ToDense(b);
  for (int64_t r = 0; r < da.rows(); ++r) {
    for (int64_t c = 0; c < da.cols(); ++c) {
      if (da.At(r, c) != db.At(r, c)) return false;
    }
  }
  return true;
}

TEST(AttrImputeTest, PolicyNamesRoundTrip) {
  for (const auto policy :
       {MissingAttrPolicy::kReject, MissingAttrPolicy::kZero,
        MissingAttrPolicy::kMean, MissingAttrPolicy::kNeighbor}) {
    auto parsed = ParseMissingAttrPolicy(MissingAttrPolicyName(policy));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value(), policy);
  }
  EXPECT_EQ(ParseMissingAttrPolicy("drop").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseMissingAttrPolicy("").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(AttrImputeTest, CompleteGraphPassesThroughUnderEveryPolicy) {
  const Graph g = CompletePathGraph();
  EXPECT_FALSE(g.has_missing_attrs());
  EXPECT_EQ(AttrMaskFingerprint(g), 0u);
  for (const auto policy :
       {MissingAttrPolicy::kReject, MissingAttrPolicy::kZero,
        MissingAttrPolicy::kMean, MissingAttrPolicy::kNeighbor}) {
    ImputeStats stats;
    auto imputed = ImputeMissingAttributes(g, policy, &stats);
    ASSERT_TRUE(imputed.ok()) << imputed.status().ToString();
    EXPECT_TRUE(SameDense(imputed.value(), g.attributes()));
    EXPECT_EQ(stats.unobserved_nodes, 0);
    EXPECT_EQ(stats.missing_cells, 0);
    EXPECT_EQ(stats.filled_entries, 0);
  }
}

TEST(AttrImputeTest, RejectPolicyRefusesIncompleteData) {
  const Graph g = DegradedPathGraph();
  auto imputed = ImputeMissingAttributes(g, MissingAttrPolicy::kReject);
  ASSERT_FALSE(imputed.ok());
  EXPECT_EQ(imputed.status().code(), StatusCode::kFailedPrecondition);
}

TEST(AttrImputeTest, ZeroPolicyKeepsStoredNumbersExactly) {
  const Graph g = DegradedPathGraph();
  ImputeStats stats;
  auto imputed = ImputeMissingAttributes(g, MissingAttrPolicy::kZero, &stats);
  ASSERT_TRUE(imputed.ok()) << imputed.status().ToString();
  // kZero is the pre-mask behavior: absent entries read as 0 either way.
  EXPECT_TRUE(SameDense(imputed.value(), g.attributes()));
  EXPECT_EQ(stats.unobserved_nodes, 1);
  EXPECT_EQ(stats.missing_cells, 1);
  EXPECT_EQ(stats.filled_entries, 0);
}

TEST(AttrImputeTest, MeanPolicyFillsWithObservedColumnMeans) {
  const Graph g = DegradedPathGraph();
  ImputeStats stats;
  auto imputed = ImputeMissingAttributes(g, MissingAttrPolicy::kMean, &stats);
  ASSERT_TRUE(imputed.ok()) << imputed.status().ToString();
  const SparseMatrix& x = imputed.value();
  EXPECT_FLOAT_EQ(x.At(1, 0), 2.0f);  // masked cell -> col0 mean
  EXPECT_FLOAT_EQ(x.At(3, 0), 2.0f);  // unobserved row -> per-column means
  EXPECT_FLOAT_EQ(x.At(3, 1), 4.0f);
  // Observed values are untouched.
  EXPECT_FLOAT_EQ(x.At(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(x.At(1, 1), 4.0f);
  EXPECT_EQ(stats.filled_entries, 3);  // cell (1,0) + the two of row 3
}

TEST(AttrImputeTest, NeighborPolicyAveragesObservedNeighbors) {
  const Graph g = DegradedPathGraph();
  ImputeStats stats;
  auto imputed =
      ImputeMissingAttributes(g, MissingAttrPolicy::kNeighbor, &stats);
  ASSERT_TRUE(imputed.ok()) << imputed.status().ToString();
  const SparseMatrix& x = imputed.value();
  // Node 1's observed neighbors are 0 and 2: col0 mean (1+3)/2 = 2.
  EXPECT_FLOAT_EQ(x.At(1, 0), 2.0f);
  // Node 3's only observed neighbor is 2: its row verbatim.
  EXPECT_FLOAT_EQ(x.At(3, 0), 3.0f);
  EXPECT_FLOAT_EQ(x.At(3, 1), 6.0f);
  EXPECT_EQ(stats.filled_entries, 3);
}

TEST(AttrImputeTest, NeighborPolicyFallsBackToColumnMeanWhenIsolated) {
  // Node 3 is disconnected AND unobserved: no observed neighbor to
  // average, so it takes the column means (the documented fallback).
  GraphBuilder b(4);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.SetAttributes(SparseMatrix::FromTriplets(
      4, 2,
      {{0, 0, 1.0f}, {0, 1, 2.0f}, {1, 0, 5.0f}, {1, 1, 4.0f},
       {2, 0, 3.0f}, {2, 1, 6.0f}}));
  b.SetAttrObserved({1, 1, 1, 0});
  auto built = std::move(b).Build();
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const Graph g = std::move(built).ValueOrDie();

  auto imputed = ImputeMissingAttributes(g, MissingAttrPolicy::kNeighbor);
  ASSERT_TRUE(imputed.ok()) << imputed.status().ToString();
  EXPECT_FLOAT_EQ(imputed.value().At(3, 0), 3.0f);  // (1+5+3)/3
  EXPECT_FLOAT_EQ(imputed.value().At(3, 1), 4.0f);  // (2+4+6)/3
}

TEST(AttrImputeTest, ImputationIsDeterministic) {
  const Graph g = DegradedPathGraph();
  for (const auto policy : {MissingAttrPolicy::kZero, MissingAttrPolicy::kMean,
                            MissingAttrPolicy::kNeighbor}) {
    auto a = ImputeMissingAttributes(g, policy);
    auto b = ImputeMissingAttributes(g, policy);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_TRUE(SameDense(a.value(), b.value()))
        << "policy " << MissingAttrPolicyName(policy);
  }
}

TEST(AttrImputeTest, MaskFingerprintIsStableAndMaskSensitive) {
  const Graph g = DegradedPathGraph();
  const uint64_t fp = AttrMaskFingerprint(g);
  EXPECT_NE(fp, 0u);
  EXPECT_EQ(AttrMaskFingerprint(g), fp);  // pure function of the graph

  // Same values, different mask -> different fingerprint.
  GraphBuilder b(4);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(2, 3);
  b.SetAttributes(SparseMatrix::FromTriplets(
      4, 2,
      {{0, 0, 1.0f}, {0, 1, 2.0f}, {1, 1, 4.0f}, {2, 0, 3.0f}, {2, 1, 6.0f}}));
  b.SetAttrObserved({1, 1, 0, 1});  // node 2 unobserved instead of node 3
  b.SetMissingAttrCells({{1, 0}});
  auto other = std::move(b).Build();
  ASSERT_TRUE(other.ok());
  EXPECT_NE(AttrMaskFingerprint(other.value()), fp);
  EXPECT_NE(AttrMaskFingerprint(other.value()), 0u);
}

TEST(AttrImputeTest, WithDroppedAttributesIsDeterministic) {
  const Graph g = CompletePathGraph();

  auto zero = WithDroppedAttributes(g, 0.0, 42);
  ASSERT_TRUE(zero.ok());
  EXPECT_FALSE(zero.value().has_missing_attrs());
  EXPECT_EQ(AttrMaskFingerprint(zero.value()), 0u);

  auto a = WithDroppedAttributes(g, 0.5, 7);
  auto b = WithDroppedAttributes(g, 0.5, 7);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a.value().attr_observed(), b.value().attr_observed());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_EQ(a.value().AttrObserved(v), !fault::RateDecision(0.5, 7, v))
        << "node " << v;
  }

  // A seed whose per-node decisions differ moves the mask (and the
  // fingerprint). With only 4 nodes nearby seeds can collide, so scan
  // for one that actually decides differently.
  uint64_t other_seed = 0;
  for (uint64_t s = 8; s < 64; ++s) {
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (fault::RateDecision(0.5, s, v) != fault::RateDecision(0.5, 7, v)) {
        other_seed = s;
        break;
      }
    }
    if (other_seed != 0) break;
  }
  ASSERT_NE(other_seed, 0u);
  auto c = WithDroppedAttributes(g, 0.5, other_seed);
  ASSERT_TRUE(c.ok());
  EXPECT_NE(AttrMaskFingerprint(a.value()), AttrMaskFingerprint(c.value()));
}

TEST(AttrImputeTest, CheckpointRefusesDifferentlyMaskedData) {
  auto substrate =
      quality::MakeQualitySubstrate(quality::SubstrateScale::kFast, 11);
  ASSERT_TRUE(substrate.ok()) << substrate.status().ToString();
  const Graph& clean = substrate.value().net.graph;

  CoaneConfig config = quality::HarnessBaseConfig(/*full=*/false, 11);
  config.max_epochs = 1;
  config.missing_attrs = MissingAttrPolicy::kNeighbor;

  auto mask_a = WithDroppedAttributes(clean, 0.3, 5);
  auto mask_b = WithDroppedAttributes(clean, 0.3, 6);
  ASSERT_TRUE(mask_a.ok() && mask_b.ok());

  CoaneModel writer(mask_a.value(), config);
  ASSERT_TRUE(writer.Preprocess().ok());
  EXPECT_EQ(writer.data_fingerprint(), AttrMaskFingerprint(mask_a.value()));
  const std::string ckpt = "/tmp/coane_mask_gate.ckpt";
  ASSERT_TRUE(writer.SaveCheckpoint(ckpt).ok());

  // Same config, different mask: the data fingerprint must refuse.
  CoaneModel wrong(mask_b.value(), config);
  ASSERT_TRUE(wrong.Preprocess().ok());
  const Status rejected = wrong.LoadCheckpoint(ckpt);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.code(), StatusCode::kFailedPrecondition);

  // Identical mask (same rate, same seed): resume is accepted.
  auto mask_a2 = WithDroppedAttributes(clean, 0.3, 5);
  ASSERT_TRUE(mask_a2.ok());
  CoaneModel right(mask_a2.value(), config);
  ASSERT_TRUE(right.Preprocess().ok());
  EXPECT_TRUE(right.LoadCheckpoint(ckpt).ok());

  std::remove(ckpt.c_str());
}

}  // namespace
}  // namespace coane

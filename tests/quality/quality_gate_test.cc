// Unit tests for the gate logic of the quality regression harness: the
// bit-identical gate (CRC + exact metric equality), the per-metric
// tolerance gate (including its NaN behavior), and the report JSON.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "quality/config_matrix.h"
#include "quality/quality_harness.h"
#include "quality/tolerance_gate.h"

namespace coane {
namespace quality {
namespace {

MetricSuite MakeSuite(double macro, double micro, double auc, double nmi) {
  MetricSuite s;
  s.macro_f1 = macro;
  s.micro_f1 = micro;
  s.link_auc = auc;
  s.nmi = nmi;
  return s;
}

TEST(BitGateTest, IdenticalPasses) {
  const MetricSuite s = MakeSuite(0.8, 0.9, 0.7, 0.6);
  const std::vector<uint32_t> crcs = {0xDEADBEEF, 0x12345678};
  GateVerdict v =
      CheckGate(GateClass::kBitIdentical, s, s, MetricTolerance{}, crcs, crcs);
  EXPECT_TRUE(v.pass);
  EXPECT_TRUE(v.failures.empty());
}

TEST(BitGateTest, CrcMismatchFailsEvenWithEqualMetrics) {
  // The gate's whole point: a byte drift the metric surface cannot see
  // is still a broken determinism contract.
  const MetricSuite s = MakeSuite(0.8, 0.9, 0.7, 0.6);
  GateVerdict v = CheckGate(GateClass::kBitIdentical, s, s,
                            MetricTolerance{}, {0xAAAAAAAA, 0xBBBBBBBB},
                            {0xAAAAAAAA, 0xBBBBBBBC});
  EXPECT_FALSE(v.pass);
  ASSERT_EQ(v.failures.size(), 1u);
  EXPECT_NE(v.failures[0].find("crc32"), std::string::npos);
}

TEST(BitGateTest, ArtifactCountMismatchFails) {
  const MetricSuite s = MakeSuite(0.8, 0.9, 0.7, 0.6);
  GateVerdict v = CheckGate(GateClass::kBitIdentical, s, s,
                            MetricTolerance{}, {1u, 2u}, {1u});
  EXPECT_FALSE(v.pass);
}

TEST(BitGateTest, MetricDriftFailsExactly) {
  // 1 ulp of drift must fail — there is no epsilon on this gate.
  const MetricSuite base = MakeSuite(0.8, 0.9, 0.7, 0.6);
  MetricSuite cand = base;
  cand.nmi = std::nextafter(cand.nmi, 1.0);
  const std::vector<uint32_t> crcs = {7u};
  GateVerdict v = CheckGate(GateClass::kBitIdentical, base, cand,
                            MetricTolerance{}, crcs, crcs);
  EXPECT_FALSE(v.pass);
  ASSERT_EQ(v.failures.size(), 1u);
  EXPECT_NE(v.failures[0].find("nmi"), std::string::npos);
}

TEST(ToleranceGateTest, WithinBoundsPassesAndIgnoresCrcs) {
  const MetricSuite base = MakeSuite(0.80, 0.90, 0.70, 0.60);
  const MetricSuite cand = MakeSuite(0.75, 0.93, 0.66, 0.69);
  MetricTolerance tol;
  tol.macro_f1 = 0.06;
  tol.micro_f1 = 0.04;
  tol.link_auc = 0.05;
  tol.nmi = 0.10;
  GateVerdict v = CheckGate(GateClass::kTolerance, base, cand, tol,
                            {0xAAAAAAAA}, {0xBBBBBBBB});
  EXPECT_TRUE(v.pass) << (v.failures.empty() ? "" : v.failures[0]);
}

TEST(ToleranceGateTest, OneExceededBoundFailsWithThatMetricNamed) {
  const MetricSuite base = MakeSuite(0.80, 0.90, 0.70, 0.60);
  const MetricSuite cand = MakeSuite(0.80, 0.90, 0.54, 0.60);
  MetricTolerance tol;
  tol.macro_f1 = tol.micro_f1 = tol.nmi = 0.05;
  tol.link_auc = 0.10;  // delta is 0.16
  GateVerdict v =
      CheckGate(GateClass::kTolerance, base, cand, tol, {}, {});
  EXPECT_FALSE(v.pass);
  ASSERT_EQ(v.failures.size(), 1u);
  EXPECT_NE(v.failures[0].find("link_auc"), std::string::npos);
}

TEST(ToleranceGateTest, NanCandidateFails) {
  // !(delta <= bound) is the comparison precisely so NaN cannot pass.
  const MetricSuite base = MakeSuite(0.8, 0.9, 0.7, 0.6);
  MetricSuite cand = base;
  cand.macro_f1 = std::nan("");
  MetricTolerance tol;
  tol.macro_f1 = tol.micro_f1 = tol.link_auc = tol.nmi = 1.0;
  GateVerdict v =
      CheckGate(GateClass::kTolerance, base, cand, tol, {}, {});
  EXPECT_FALSE(v.pass);
}

TEST(GateDeltasTest, BothGatesReportDeltasInEntriesOrder) {
  const MetricSuite base = MakeSuite(0.80, 0.90, 0.70, 0.60);
  MetricSuite cand = MakeSuite(0.75, 0.90, 0.90, 0.60);
  cand.nmi = std::nan("");
  MetricTolerance tol;
  tol.macro_f1 = tol.micro_f1 = tol.link_auc = tol.nmi = 1.0;
  for (const GateClass gate :
       {GateClass::kBitIdentical, GateClass::kTolerance}) {
    const GateVerdict v = CheckGate(gate, base, cand, tol, {1u}, {1u});
    ASSERT_EQ(v.deltas.size(), base.Entries().size());
    EXPECT_EQ(v.deltas[0], std::fabs(0.75 - 0.80));
    EXPECT_EQ(v.deltas[1], 0.0);
    EXPECT_EQ(v.deltas[2], std::fabs(0.90 - 0.70));
    EXPECT_TRUE(std::isnan(v.deltas[3]));
  }
}

TEST(ToleranceGateTest, UnknownMetricNameGetsZeroTolerance) {
  MetricTolerance tol;
  tol.macro_f1 = 0.5;
  EXPECT_EQ(tol.For("macro_f1"), 0.5);
  EXPECT_EQ(tol.For("no_such_metric"), 0.0);
}

TEST(ConfigMatrixTest, FastMatrixShapeAndGates) {
  const auto matrix = DefaultQualityMatrix(/*full=*/false);
  ASSERT_GE(matrix.size(), 6u);
  EXPECT_TRUE(matrix.front().is_baseline);
  int bit = 0, tol = 0, degraded = 0;
  for (const auto& c : matrix) {
    if (c.is_baseline) continue;
    if (c.gate == GateClass::kBitIdentical) ++bit;
    if (c.gate == GateClass::kTolerance) ++tol;
    if (c.dead_shard >= 0) {
      ++degraded;
      EXPECT_EQ(c.gate, GateClass::kTolerance);
      EXPECT_LT(c.quorum, c.shards);
    }
  }
  // threads8, resume, shards1 are bit-gated; shards4 and the degraded
  // round are tolerance-gated.
  EXPECT_GE(bit, 3);
  EXPECT_GE(tol, 2);
  EXPECT_EQ(degraded, 1);
}

TEST(ReportJsonTest, RendersGatesMetricsAndVerdicts) {
  QualityReport report;
  report.full = false;
  report.seed = 42;
  report.nodes = 120;
  report.edges = 480;
  report.num_classes = 3;
  report.all_pass = false;

  QualityCaseReport base;
  base.spec.name = "baseline";
  base.spec.is_baseline = true;
  base.result.metrics = MakeSuite(0.8, 0.9, 0.7, 0.6);
  base.result.artifact_crcs = {0xDEADBEEF, 0x00000042};
  report.cases.push_back(base);

  QualityCaseReport cand;
  cand.spec.name = "shards4";
  cand.spec.gate = GateClass::kTolerance;
  cand.spec.shards = 4;
  cand.spec.tolerance.link_auc = 0.25;
  cand.result.metrics = MakeSuite(0.8, 0.9, 0.5, 0.6);
  cand.result.artifact_crcs = {1u, 2u};
  cand.verdict.deltas = {0.0, 0.0, 0.2, 0.0};
  cand.verdict.pass = false;
  cand.verdict.failures = {"link_auc drifted"};
  report.cases.push_back(cand);

  const std::string json = RenderQualityReportJson(report);
  EXPECT_NE(json.find("\"harness\": \"coane_quality\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"baseline\""), std::string::npos);
  EXPECT_NE(json.find("\"gate\": \"baseline\""), std::string::npos);
  EXPECT_NE(json.find("\"gate\": \"tolerance\""), std::string::npos);
  EXPECT_NE(json.find("\"deadbeef\""), std::string::npos);
  EXPECT_NE(json.find("\"00000042\""), std::string::npos);
  EXPECT_NE(json.find("\"link_auc\": 0.25"), std::string::npos);
  EXPECT_NE(json.find("\"failures\": [\"link_auc drifted\"]"),
            std::string::npos);
  EXPECT_NE(json.find("\"all_pass\": false"), std::string::npos);
  // Doubles render round-trippably, never as NaN literals.
  EXPECT_EQ(json.find("nan"), std::string::npos);
}

}  // namespace
}  // namespace quality
}  // namespace coane

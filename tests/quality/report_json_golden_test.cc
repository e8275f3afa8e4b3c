// Golden bytes for the two quality-tier JSON artifacts:
// RenderQualityReportJson (bench_out/QUALITY_coane.json) and
// RenderMissingSweepJson (bench_out/BENCH_incomplete.json). Each test
// renders a hand-built report and compares it byte for byte with the
// committed text, so any change to key order, layout, number format or
// escaping shows up here as a diff. The reports cover a baseline row, a
// bit-identical row with CRCs, a tolerance row with failures, a NaN
// metric (rendered as null), and sweeps with empty and non-empty
// determinism blocks.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "quality/missing_sweep.h"
#include "quality/quality_harness.h"

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

// Stores a row's per-metric |candidate - baseline| vector on whichever
// member the report type keeps it in (the row or its gate verdict).
template <typename Row>
void SetDeltas(Row* row, std::vector<double> deltas) {
  if constexpr (requires { row->deltas; }) {
    row->deltas = std::move(deltas);
  } else {
    row->verdict.deltas = std::move(deltas);
  }
}

QualityReport GoldenQualityReport() {
  QualityReport report;
  report.full = false;
  report.seed = 7;
  report.nodes = 120;
  report.edges = 480;
  report.num_classes = 3;
  report.train_ratio = 0.5;
  report.all_pass = false;
  report.total_seconds = 12.5;

  QualityCaseReport base;
  base.spec.name = "baseline";
  base.spec.is_baseline = true;
  base.result.metrics = MakeSuite(0.8, 0.9, 0.7, 0.6);
  base.result.artifact_crcs = {0xDEADBEEF, 0x00000042};
  base.result.seconds = 1.25;
  report.cases.push_back(base);

  QualityCaseReport bit;
  bit.spec.name = "threads8";
  bit.spec.threads = 8;
  bit.spec.gate = GateClass::kBitIdentical;
  bit.result.metrics = base.result.metrics;
  bit.result.artifact_crcs = base.result.artifact_crcs;
  bit.result.seconds = 0.5;
  SetDeltas(&bit, {0.0, 0.0, 0.0, 0.0});
  report.cases.push_back(bit);

  QualityCaseReport tol;
  tol.spec.name = "shards4-degraded";
  tol.spec.mode = RunMode::kSharded;
  tol.spec.shards = 4;
  tol.spec.quorum = 3;
  tol.spec.dead_shard = 2;
  tol.spec.gate = GateClass::kTolerance;
  tol.spec.tolerance.macro_f1 = 0.3;
  tol.spec.tolerance.micro_f1 = 0.3;
  tol.spec.tolerance.link_auc = 0.12;
  tol.spec.tolerance.nmi = 0.32;
  tol.result.metrics = MakeSuite(0.75, 0.875, 0.5, 0.625);
  tol.result.artifact_crcs = {0x0BADF00D, 0xFEEDFACE};
  tol.result.seconds = 3.0;
  SetDeltas(&tol, {0.05, 0.025, 0.2, 0.025});
  tol.verdict.pass = false;
  tol.verdict.failures = {"link_auc drifted \"far\"", "two\nlines"};
  report.cases.push_back(tol);

  QualityCaseReport nan;
  nan.spec.name = "resume";
  nan.spec.mode = RunMode::kResume;
  nan.spec.threads = 8;
  nan.spec.gate = GateClass::kBitIdentical;
  nan.result.metrics = MakeSuite(0.8, 0.9, 0.7, std::nan(""));
  nan.result.artifact_crcs = {0xDEADBEEF, 0x00000043};
  nan.result.seconds = 0.75;
  SetDeltas(&nan, {0.0, 0.0, 0.0, std::nan("")});
  nan.verdict.pass = false;
  nan.verdict.failures = {"artifact 1 crc32 00000043 != baseline 00000042"};
  report.cases.push_back(nan);
  return report;
}

constexpr char kQualityGolden[] =
    "{\n"
    "  \"harness\": \"coane_quality\",\n"
    "  \"full\": false,\n"
    "  \"seed\": 7,\n"
    "  \"substrate\": {\"nodes\": 120, \"edges\": 480, \"classes\": 3},\n"
    "  \"protocol\": {\"train_ratio\": 0.5, \"split\": \"70/10/20\"},\n"
    "  \"cases\": [\n"
    "    {\n"
    "      \"name\": \"baseline\",\n"
    "      \"mode\": \"direct\",\n"
    "      \"threads\": 1,\n"
    "      \"shards\": 1,\n"
    "      \"quorum\": 0,\n"
    "      \"dead_shard\": -1,\n"
    "      \"gate\": \"baseline\",\n"
    "      \"metrics\": {\"macro_f1\": 0.80000000000000004, \"micro_f1\": 0.90000000000000002, \"link_auc\": 0.69999999999999996, \"nmi\": 0.59999999999999998},\n"
    "      \"artifact_crc32\": [\"deadbeef\", \"00000042\"],\n"
    "      \"seconds\": 1.25,\n"
    "      \"pass\": true\n"
    "    },\n"
    "    {\n"
    "      \"name\": \"threads8\",\n"
    "      \"mode\": \"direct\",\n"
    "      \"threads\": 8,\n"
    "      \"shards\": 1,\n"
    "      \"quorum\": 0,\n"
    "      \"dead_shard\": -1,\n"
    "      \"gate\": \"bit-identical\",\n"
    "      \"metrics\": {\"macro_f1\": 0.80000000000000004, \"micro_f1\": 0.90000000000000002, \"link_auc\": 0.69999999999999996, \"nmi\": 0.59999999999999998},\n"
    "      \"delta\": {\"macro_f1\": 0, \"micro_f1\": 0, \"link_auc\": 0, \"nmi\": 0},\n"
    "      \"artifact_crc32\": [\"deadbeef\", \"00000042\"],\n"
    "      \"seconds\": 0.5,\n"
    "      \"pass\": true\n"
    "    },\n"
    "    {\n"
    "      \"name\": \"shards4-degraded\",\n"
    "      \"mode\": \"sharded\",\n"
    "      \"threads\": 1,\n"
    "      \"shards\": 4,\n"
    "      \"quorum\": 3,\n"
    "      \"dead_shard\": 2,\n"
    "      \"gate\": \"tolerance\",\n"
    "      \"metrics\": {\"macro_f1\": 0.75, \"micro_f1\": 0.875, \"link_auc\": 0.5, \"nmi\": 0.625},\n"
    "      \"delta\": {\"macro_f1\": 0.050000000000000003, \"micro_f1\": 0.025000000000000001, \"link_auc\": 0.20000000000000001, \"nmi\": 0.025000000000000001},\n"
    "      \"tolerance\": {\"macro_f1\": 0.29999999999999999, \"micro_f1\": 0.29999999999999999, \"link_auc\": 0.12, \"nmi\": 0.32000000000000001},\n"
    "      \"artifact_crc32\": [\"0badf00d\", \"feedface\"],\n"
    "      \"seconds\": 3,\n"
    "      \"pass\": false,\n"
    "      \"failures\": [\"link_auc drifted \\\"far\\\"\", \"two\\nlines\"]\n"
    "    },\n"
    "    {\n"
    "      \"name\": \"resume\",\n"
    "      \"mode\": \"resume\",\n"
    "      \"threads\": 8,\n"
    "      \"shards\": 1,\n"
    "      \"quorum\": 0,\n"
    "      \"dead_shard\": -1,\n"
    "      \"gate\": \"bit-identical\",\n"
    "      \"metrics\": {\"macro_f1\": 0.80000000000000004, \"micro_f1\": 0.90000000000000002, \"link_auc\": 0.69999999999999996, \"nmi\": null},\n"
    "      \"delta\": {\"macro_f1\": 0, \"micro_f1\": 0, \"link_auc\": 0, \"nmi\": null},\n"
    "      \"artifact_crc32\": [\"deadbeef\", \"00000043\"],\n"
    "      \"seconds\": 0.75,\n"
    "      \"pass\": false,\n"
    "      \"failures\": [\"artifact 1 crc32 00000043 != baseline 00000042\"]\n"
    "    }\n"
    "  ],\n"
    "  \"all_pass\": false,\n"
    "  \"total_seconds\": 12.5\n"
    "}\n";

MissingSweepReport GoldenSweepReport() {
  MissingSweepReport report;
  report.full = false;
  report.seed = 7;
  report.drop_seed = 0xA77DD209DEC0D9ULL;
  report.policy = MissingAttrPolicy::kNeighbor;
  report.nodes = 120;
  report.edges = 480;
  report.attributes = 64;
  report.all_pass = false;
  report.total_seconds = 3.75;

  MissingRateReport rate0;
  rate0.rate = 0.0;
  rate0.mask_fingerprint = 0x0123456789ABCDEFULL;
  rate0.result.metrics = MakeSuite(0.8, 0.9, 0.7, 0.6);
  rate0.result.artifact_crcs = {1u, 2u};
  rate0.result.seconds = 0.25;
  rate0.tolerance = MissingRateTolerance(false, 0.0);
  report.rates.push_back(rate0);

  MissingRateReport rate30;
  rate30.rate = 0.3;
  rate30.dropped_nodes = 36;
  rate30.mask_fingerprint = 0xFEDCBA9876543210ULL;
  rate30.impute.unobserved_nodes = 36;
  rate30.impute.missing_cells = 5;
  rate30.impute.filled_entries = 410;
  rate30.impute_seconds = 0.125;
  rate30.result.metrics = MakeSuite(0.75, 0.875, std::nan(""), 0.5);
  rate30.result.artifact_crcs = {3u, 4u};
  rate30.result.seconds = 0.375;
  rate30.tolerance = MissingRateTolerance(false, 0.3);
  SetDeltas(&rate30, {0.05, 0.025, std::nan(""), 0.1});
  rate30.verdict.pass = false;
  rate30.verdict.failures = {"link_auc |nan - 0.700000| = nan exceeds "
                             "tolerance 0.110000"};
  report.rates.push_back(rate30);
  return report;
}

constexpr char kSweepGolden[] =
    "{\n"
    "  \"bench\": \"incomplete\",\n"
    "  \"full\": false,\n"
    "  \"seed\": 7,\n"
    "  \"drop_seed\": 47144662172877017,\n"
    "  \"policy\": \"neighbor\",\n"
    "  \"substrate\": {\"nodes\": 120, \"edges\": 480, \"attributes\": 64},\n"
    "  \"rates\": [\n"
    "    {\n"
    "      \"rate\": 0,\n"
    "      \"dropped_nodes\": 0,\n"
    "      \"mask_fingerprint\": \"0123456789abcdef\",\n"
    "      \"impute\": {\"unobserved_nodes\": 0, \"missing_cells\": 0, \"filled_entries\": 0, \"seconds\": 0, \"rows_per_sec\": 0},\n"
    "      \"metrics\": {\"macro_f1\": 0.80000000000000004, \"micro_f1\": 0.90000000000000002, \"link_auc\": 0.69999999999999996, \"nmi\": 0.59999999999999998},\n"
    "      \"seconds\": 0.25,\n"
    "      \"pass\": true\n"
    "    },\n"
    "    {\n"
    "      \"rate\": 0.29999999999999999,\n"
    "      \"dropped_nodes\": 36,\n"
    "      \"mask_fingerprint\": \"fedcba9876543210\",\n"
    "      \"impute\": {\"unobserved_nodes\": 36, \"missing_cells\": 5, \"filled_entries\": 410, \"seconds\": 0.125, \"rows_per_sec\": 960},\n"
    "      \"metrics\": {\"macro_f1\": 0.75, \"micro_f1\": 0.875, \"link_auc\": null, \"nmi\": 0.5},\n"
    "      \"delta\": {\"macro_f1\": 0.050000000000000003, \"micro_f1\": 0.025000000000000001, \"link_auc\": null, \"nmi\": 0.10000000000000001},\n"
    "      \"tolerance\": {\"macro_f1\": 0.14000000000000001, \"micro_f1\": 0.14000000000000001, \"link_auc\": 0.11, \"nmi\": 0.25},\n"
    "      \"seconds\": 0.375,\n"
    "      \"pass\": false,\n"
    "      \"failures\": [\"link_auc |nan - 0.700000| = nan exceeds tolerance 0.110000\"]\n"
    "    }\n"
    "  ],\n"
    "  \"determinism\": [\n"
    "  ],\n"
    "  \"all_pass\": false,\n"
    "  \"total_seconds\": 3.75\n"
    "}\n";

MissingSweepReport GoldenSweepWithDeterminism() {
  MissingSweepReport report;
  report.seed = 9;
  report.drop_seed = 11;
  report.policy = MissingAttrPolicy::kMean;
  report.nodes = 10;
  report.edges = 20;
  report.attributes = 5;
  report.all_pass = true;
  report.total_seconds = 0.5;

  MissingRateReport rate0;
  rate0.result.metrics = MakeSuite(0.5, 0.5, 0.5, 0.5);
  rate0.result.seconds = 0.125;
  report.rates.push_back(rate0);

  QualityCaseReport det;
  det.spec.name = "shards1";
  det.spec.mode = RunMode::kSharded;
  det.spec.gate = GateClass::kBitIdentical;
  det.result.metrics = rate0.result.metrics;
  det.result.artifact_crcs = {0xCAFEBABE, 0x00C0FFEE};
  det.result.seconds = 0.25;
  SetDeltas(&det, {0.0, 0.0, 0.0, 0.0});
  report.determinism.push_back(det);
  return report;
}

constexpr char kSweepDeterminismGolden[] =
    "{\n"
    "  \"bench\": \"incomplete\",\n"
    "  \"full\": false,\n"
    "  \"seed\": 9,\n"
    "  \"drop_seed\": 11,\n"
    "  \"policy\": \"mean\",\n"
    "  \"substrate\": {\"nodes\": 10, \"edges\": 20, \"attributes\": 5},\n"
    "  \"rates\": [\n"
    "    {\n"
    "      \"rate\": 0,\n"
    "      \"dropped_nodes\": 0,\n"
    "      \"mask_fingerprint\": \"0000000000000000\",\n"
    "      \"impute\": {\"unobserved_nodes\": 0, \"missing_cells\": 0, \"filled_entries\": 0, \"seconds\": 0, \"rows_per_sec\": 0},\n"
    "      \"metrics\": {\"macro_f1\": 0.5, \"micro_f1\": 0.5, \"link_auc\": 0.5, \"nmi\": 0.5},\n"
    "      \"seconds\": 0.125,\n"
    "      \"pass\": true\n"
    "    }\n"
    "  ],\n"
    "  \"determinism\": [\n"
    "    {\n"
    "      \"name\": \"shards1\",\n"
    "      \"gate\": \"bit-identical\",\n"
    "      \"metrics\": {\"macro_f1\": 0.5, \"micro_f1\": 0.5, \"link_auc\": 0.5, \"nmi\": 0.5},\n"
    "      \"artifact_crc32\": [\"cafebabe\", \"00c0ffee\"],\n"
    "      \"seconds\": 0.25,\n"
    "      \"pass\": true\n"
    "    }\n"
    "  ],\n"
    "  \"all_pass\": true,\n"
    "  \"total_seconds\": 0.5\n"
    "}\n";

TEST(ReportJsonGoldenTest, QualityReportBytes) {
  EXPECT_EQ(RenderQualityReportJson(GoldenQualityReport()), kQualityGolden);
}

TEST(ReportJsonGoldenTest, MissingSweepBytes) {
  EXPECT_EQ(RenderMissingSweepJson(GoldenSweepReport()), kSweepGolden);
}

TEST(ReportJsonGoldenTest, MissingSweepDeterminismBlockBytes) {
  EXPECT_EQ(RenderMissingSweepJson(GoldenSweepWithDeterminism()),
            kSweepDeterminismGolden);
}

}  // namespace
}  // namespace quality
}  // namespace coane

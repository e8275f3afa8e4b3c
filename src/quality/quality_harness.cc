#include "quality/quality_harness.h"

#include <utility>

#include "common/json_writer.h"
#include "common/stopwatch.h"
#include "quality/report_json.h"

namespace coane {
namespace quality {
namespace {

std::string RunModeName(RunMode mode) {
  switch (mode) {
    case RunMode::kDirect:
      return "direct";
    case RunMode::kResume:
      return "resume";
    case RunMode::kSharded:
      return "sharded";
  }
  return "unknown";
}

}  // namespace

CoaneConfig HarnessBaseConfig(bool full, uint64_t seed) {
  // Every deviation from defaults below maps 1:1 onto a coane_cli train
  // flag (see the header contract). Fields with no flag — batch size,
  // decoder widths, sampling mode — stay at their defaults on purpose.
  CoaneConfig config;
  config.seed = seed;
  config.num_walks = 1;       // --walks
  config.context_size = 3;    // --context
  config.num_negative = 4;    // --negatives
  config.learning_rate = 0.01f;  // --lr
  if (full) {
    config.embedding_dim = 32;  // --dim
    config.max_epochs = 6;      // --epochs
    config.walk_length = 40;    // --walk-length
  } else {
    config.embedding_dim = 16;
    config.max_epochs = 4;
    config.walk_length = 20;
  }
  return config;
}

Result<QualityReport> RunQualityHarness(const QualityHarnessOptions& options) {
  Stopwatch total_clock;

  auto substrate = MakeQualitySubstrate(
      options.full ? SubstrateScale::kFull : SubstrateScale::kFast,
      options.seed);
  if (!substrate.ok()) return substrate.status();
  const QualitySubstrate& sub = substrate.value();

  const CoaneConfig base = HarnessBaseConfig(options.full, options.seed);
  std::vector<QualityCase> matrix =
      options.matrix.empty() ? DefaultQualityMatrix(options.full)
                             : options.matrix;
  if (matrix.empty() || !matrix.front().is_baseline) {
    return Status::InvalidArgument(
        "quality matrix must start with its baseline case");
  }

  MetricSuiteOptions eval_options;
  eval_options.train_ratio = options.train_ratio;
  eval_options.seed = options.seed;

  QualityReport report;
  report.full = options.full;
  report.seed = options.seed;
  report.nodes = sub.net.graph.num_nodes();
  report.edges = sub.net.graph.num_edges();
  report.num_classes = sub.num_classes;
  report.train_ratio = options.train_ratio;
  report.all_pass = true;

  bool have_baseline = false;
  MetricSuite baseline_metrics;
  std::vector<uint32_t> baseline_crcs;
  for (const QualityCase& qcase : matrix) {
    auto result = RunQualityCase(qcase, sub, base,
                                 options.work_dir + "/" + qcase.name,
                                 eval_options);
    if (!result.ok()) return result.status();

    QualityCaseReport row;
    row.spec = qcase;
    row.result = std::move(result).ValueOrDie();
    if (qcase.is_baseline) {
      if (have_baseline) {
        return Status::InvalidArgument(
            "quality matrix has more than one baseline case");
      }
      have_baseline = true;
      baseline_metrics = row.result.metrics;
      baseline_crcs = row.result.artifact_crcs;
    } else {
      if (!have_baseline) {
        return Status::InvalidArgument(
            "quality case '" + qcase.name + "' has no baseline to gate on");
      }
      row.verdict = CheckGate(qcase.gate, baseline_metrics,
                              row.result.metrics, qcase.tolerance,
                              baseline_crcs, row.result.artifact_crcs);
      if (!row.verdict.pass) report.all_pass = false;
    }
    report.cases.push_back(std::move(row));
  }

  report.total_seconds = total_clock.ElapsedSeconds();
  return report;
}

std::string RenderQualityReportJson(const QualityReport& report) {
  JsonWriter json;
  json.BeginObject();
  json.Key("harness").String("coane_quality");
  json.Key("full").Bool(report.full);
  json.Key("seed").Uint(report.seed);
  json.Key("substrate").BeginObject(JsonWriter::kInline);
  json.Key("nodes").Int(report.nodes);
  json.Key("edges").Int(report.edges);
  json.Key("classes").Int(report.num_classes);
  json.EndObject();
  json.Key("protocol").BeginObject(JsonWriter::kInline);
  json.Key("train_ratio").Double(report.train_ratio);
  json.Key("split").String("70/10/20");
  json.EndObject();
  json.Key("cases").BeginArray();
  for (const QualityCaseReport& row : report.cases) {
    json.BeginObject();
    json.Key("name").String(row.spec.name);
    json.Key("mode").String(RunModeName(row.spec.mode));
    json.Key("threads").Int(row.spec.threads);
    json.Key("shards").Int(row.spec.shards);
    json.Key("quorum").Int(row.spec.quorum);
    json.Key("dead_shard").Int(row.spec.dead_shard);
    json.Key("gate").String(row.spec.is_baseline
                                ? "baseline"
                                : GateClassName(row.spec.gate));
    WriteMetricObjects(json, row.result.metrics, row.verdict.deltas,
                       row.spec.gate == GateClass::kTolerance
                           ? &row.spec.tolerance
                           : nullptr);
    WriteArtifactCrcs(json, row.result.artifact_crcs);
    WriteRowTail(json, row.result.seconds, row.verdict);
    json.EndObject();
  }
  json.EndArray();
  json.Key("all_pass").Bool(report.all_pass);
  json.Key("total_seconds").Double(report.total_seconds);
  json.EndObject();
  return json.Finish();
}

Status WriteQualityReportJson(const QualityReport& report,
                              const std::string& path) {
  return WriteJsonFile(path, RenderQualityReportJson(report));
}

}  // namespace quality
}  // namespace coane

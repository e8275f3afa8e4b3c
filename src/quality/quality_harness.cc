#include "quality/quality_harness.h"

#include <cmath>
#include <cstdio>
#include <utility>

#include "common/atomic_file.h"
#include "common/record_file.h"
#include "common/stopwatch.h"
#include "dist/shard_plan.h"

namespace coane {
namespace quality {
namespace {

std::string JsonDouble(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  out += '"';
  return out;
}

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
      const auto base_entries = baseline_metrics.Entries();
      const auto cand_entries = row.result.metrics.Entries();
      for (size_t i = 0; i < base_entries.size(); ++i) {
        row.deltas.push_back(
            std::fabs(cand_entries[i].second - base_entries[i].second));
      }
      if (!row.verdict.pass) report.all_pass = false;
    }
    report.cases.push_back(std::move(row));
  }

  report.total_seconds = total_clock.ElapsedSeconds();
  return report;
}

std::string RenderQualityReportJson(const QualityReport& report) {
  std::string out;
  out += "{\n";
  out += "  \"harness\": \"coane_quality\",\n";
  out += "  \"full\": " + std::string(report.full ? "true" : "false") + ",\n";
  out += "  \"seed\": " + std::to_string(report.seed) + ",\n";
  out += "  \"substrate\": {\"nodes\": " + std::to_string(report.nodes) +
         ", \"edges\": " + std::to_string(report.edges) +
         ", \"classes\": " + std::to_string(report.num_classes) + "},\n";
  out += "  \"protocol\": {\"train_ratio\": " + JsonDouble(report.train_ratio) +
         ", \"split\": \"70/10/20\"},\n";
  out += "  \"cases\": [\n";
  for (size_t c = 0; c < report.cases.size(); ++c) {
    const QualityCaseReport& row = report.cases[c];
    out += "    {\n";
    out += "      \"name\": " + JsonString(row.spec.name) + ",\n";
    out += "      \"mode\": " + JsonString(RunModeName(row.spec.mode)) + ",\n";
    out += "      \"threads\": " + std::to_string(row.spec.threads) + ",\n";
    out += "      \"shards\": " + std::to_string(row.spec.shards) + ",\n";
    out += "      \"quorum\": " + std::to_string(row.spec.quorum) + ",\n";
    out += "      \"dead_shard\": " + std::to_string(row.spec.dead_shard) +
           ",\n";
    out += "      \"gate\": " +
           JsonString(row.spec.is_baseline ? "baseline"
                                           : GateClassName(row.spec.gate)) +
           ",\n";
    const auto entries = row.result.metrics.Entries();
    out += "      \"metrics\": {";
    for (size_t i = 0; i < entries.size(); ++i) {
      if (i) out += ", ";
      out += JsonString(entries[i].first) + ": " +
             JsonDouble(entries[i].second);
    }
    out += "},\n";
    if (!row.spec.is_baseline) {
      out += "      \"delta\": {";
      for (size_t i = 0; i < entries.size(); ++i) {
        if (i) out += ", ";
        out += JsonString(entries[i].first) + ": " +
               JsonDouble(i < row.deltas.size() ? row.deltas[i] : 0.0);
      }
      out += "},\n";
      if (row.spec.gate == GateClass::kTolerance) {
        out += "      \"tolerance\": {";
        for (size_t i = 0; i < entries.size(); ++i) {
          if (i) out += ", ";
          out += JsonString(entries[i].first) + ": " +
                 JsonDouble(row.spec.tolerance.For(entries[i].first));
        }
        out += "},\n";
      }
    }
    out += "      \"artifact_crc32\": [";
    for (size_t i = 0; i < row.result.artifact_crcs.size(); ++i) {
      if (i) out += ", ";
      out += "\"" + Hex32(row.result.artifact_crcs[i]) + "\"";
    }
    out += "],\n";
    out += "      \"seconds\": " + JsonDouble(row.result.seconds) + ",\n";
    out += "      \"pass\": " +
           std::string(row.verdict.pass ? "true" : "false");
    if (!row.verdict.failures.empty()) {
      out += ",\n      \"failures\": [";
      for (size_t i = 0; i < row.verdict.failures.size(); ++i) {
        if (i) out += ", ";
        out += JsonString(row.verdict.failures[i]);
      }
      out += "]";
    }
    out += "\n    }";
    out += (c + 1 < report.cases.size()) ? ",\n" : "\n";
  }
  out += "  ],\n";
  out += "  \"all_pass\": " +
         std::string(report.all_pass ? "true" : "false") + ",\n";
  out += "  \"total_seconds\": " + JsonDouble(report.total_seconds) + "\n";
  out += "}\n";
  return out;
}

Status WriteQualityReportJson(const QualityReport& report,
                              const std::string& path) {
  const size_t slash = path.rfind('/');
  if (slash != std::string::npos && slash > 0) {
    COANE_RETURN_IF_ERROR(dist::MakeDirs(path.substr(0, slash)));
  }
  return WriteFileAtomic(path, RenderQualityReportJson(report));
}

}  // namespace quality
}  // namespace coane

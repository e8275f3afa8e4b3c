#ifndef COANE_QUALITY_REPORT_JSON_H_
#define COANE_QUALITY_REPORT_JSON_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/json_writer.h"
#include "common/record_file.h"
#include "eval/metric_suite.h"
#include "quality/tolerance_gate.h"

namespace coane {
namespace quality {

// Row members shared by RenderQualityReportJson and RenderMissingSweepJson.

/// "metrics", then on a gated row (non-empty `deltas`) "delta" and, when
/// `tolerance` is given, "tolerance": inline objects keyed by metric name
/// in MetricSuite::Entries() order.
inline void WriteMetricObjects(JsonWriter& json, const MetricSuite& metrics,
                               const std::vector<double>& deltas,
                               const MetricTolerance* tolerance) {
  const auto entries = metrics.Entries();
  auto object = [&](const char* key, auto value_of) {
    json.Key(key).BeginObject(JsonWriter::kInline);
    for (size_t i = 0; i < entries.size(); ++i) {
      json.Key(entries[i].first).Double(value_of(i));
    }
    json.EndObject();
  };
  object("metrics", [&](size_t i) { return entries[i].second; });
  if (deltas.empty()) return;
  object("delta", [&](size_t i) { return deltas[i]; });
  if (tolerance == nullptr) return;
  object("tolerance",
         [&](size_t i) { return tolerance->For(entries[i].first); });
}

/// "artifact_crc32": the artifact CRC-32s as inline hex strings.
inline void WriteArtifactCrcs(JsonWriter& json,
                              const std::vector<uint32_t>& crcs) {
  json.Key("artifact_crc32").BeginArray(JsonWriter::kInline);
  for (const uint32_t crc : crcs) json.String(Hex32(crc));
  json.EndArray();
}

/// The members that end every row: "seconds", "pass", and "failures"
/// when the gate reported any.
inline void WriteRowTail(JsonWriter& json, double seconds,
                         const GateVerdict& verdict) {
  json.Key("seconds").Double(seconds);
  json.Key("pass").Bool(verdict.pass);
  if (verdict.failures.empty()) return;
  json.Key("failures").BeginArray(JsonWriter::kInline);
  for (const std::string& failure : verdict.failures) json.String(failure);
  json.EndArray();
}

}  // namespace quality
}  // namespace coane

#endif  // COANE_QUALITY_REPORT_JSON_H_

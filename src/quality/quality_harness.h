#ifndef COANE_QUALITY_QUALITY_HARNESS_H_
#define COANE_QUALITY_QUALITY_HARNESS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/coane_config.h"
#include "quality/config_matrix.h"
#include "quality/pipeline_runner.h"
#include "quality/substrate.h"

namespace coane {
namespace quality {

/// Hyperparameters every configuration trains with. Deliberately deviates
/// from CoaneConfig defaults ONLY in fields coane_cli can express
/// (--dim/--epochs/--context/--walks/--walk-length/--negatives/--gamma/
/// --lr/--seed/--grad-clip): the quality_e2e tier reruns this exact
/// config through the real coane_cli + coane_supervisor binaries and
/// gates those artifacts bit-identically against the in-process runs,
/// which only works if the config is reachable from flags.
CoaneConfig HarnessBaseConfig(bool full, uint64_t seed);

struct QualityHarnessOptions {
  /// false = fast per-PR gate substrate/matrix; true = bench-grade.
  bool full = false;
  uint64_t seed = 42;
  /// Scratch directory for checkpoints, shard work dirs, and artifacts.
  std::string work_dir = "quality_work";
  /// Classification protocol knob (MetricSuiteOptions.train_ratio).
  double train_ratio = 0.5;
  /// Empty = DefaultQualityMatrix(full). Tests inject subsets here.
  std::vector<QualityCase> matrix;
};

/// One row of the report: the case spec, what it produced, and how the
/// gate judged it against the baseline row.
struct QualityCaseReport {
  QualityCase spec;
  PipelineResult result;
  /// Trivially passing (and without deltas) for the baseline row itself.
  GateVerdict verdict;
};

/// The trajectory artifact of one harness run (bench_out/QUALITY_coane.json).
struct QualityReport {
  bool full = false;
  uint64_t seed = 0;
  int64_t nodes = 0;
  int64_t edges = 0;
  int num_classes = 0;
  double train_ratio = 0.5;
  std::vector<QualityCaseReport> cases;
  bool all_pass = false;
  double total_seconds = 0.0;
};

/// Runs the whole matrix: substrate generation, every case's pipeline,
/// and every non-baseline case's gate against the baseline row. The
/// returned report is complete even when gates fail (all_pass=false);
/// only infrastructure errors (I/O, training divergence) surface as a
/// non-OK status. The baseline row must be first in the matrix.
Result<QualityReport> RunQualityHarness(const QualityHarnessOptions& options);

/// JSON rendering of the report (stable key order; the report-JSON rule
/// of DESIGN.md §9). "delta" appears on gated rows, "tolerance" on
/// tolerance-gated ones.
std::string RenderQualityReportJson(const QualityReport& report);

/// RenderQualityReportJson + WriteJsonFile.
Status WriteQualityReportJson(const QualityReport& report,
                              const std::string& path);

}  // namespace quality
}  // namespace coane

#endif  // COANE_QUALITY_QUALITY_HARNESS_H_

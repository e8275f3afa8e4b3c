#ifndef COANE_QUALITY_MISSING_SWEEP_H_
#define COANE_QUALITY_MISSING_SWEEP_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "graph/attr_impute.h"
#include "quality/quality_harness.h"
#include "quality/substrate.h"

namespace coane {
namespace quality {

/// The missing-rate sweep of the quality harness (DESIGN.md "Degraded
/// inputs"): the fixed substrate is degraded by dropping a deterministic
/// fraction of attribute rows (the same per-node decision as the
/// `graph.attr_drop` rate fault), trained under one imputation policy at
/// each rate, and the metric degradation vs. the complete-data run is
/// gated by calibrated per-rate tolerances. A bit-identity block at one
/// fixed rate then proves the degraded pipeline still honors the
/// determinism contract: threads8 / kill+resume / shards1 must reproduce
/// the degraded baseline byte for byte (CRC-gated).
struct MissingSweepOptions {
  /// false = fast per-PR substrate; true = bench-grade.
  bool full = false;
  uint64_t seed = 42;
  std::string work_dir = "missing_sweep_work";
  double train_ratio = 0.5;
  /// Missing rates to sweep; must start with 0.0 (the reference row).
  std::vector<double> rates = {0.0, 0.1, 0.3, 0.5};
  /// Imputation policy every degraded run trains under.
  MissingAttrPolicy policy = MissingAttrPolicy::kNeighbor;
  /// Rate at which the bit-identity block runs; must be one of `rates`
  /// (its row doubles as the block's baseline). Negative disables the
  /// block (unit tests trimming runtime).
  double determinism_rate = 0.3;
};

/// One swept rate: degradation accounting, imputation-stage cost, the
/// metric suite, and the tolerance verdict vs. the rate-0 row.
struct MissingRateReport {
  double rate = 0.0;
  int64_t dropped_nodes = 0;       ///< unobserved rows in the full graph
  uint64_t mask_fingerprint = 0;   ///< AttrMaskFingerprint (full graph)
  ImputeStats impute;              ///< imputation work on the full graph
  double impute_seconds = 0.0;     ///< wall clock of that imputation
  PipelineResult result;
  GateVerdict verdict;             ///< vs. rate 0; no deltas for rate 0
  MetricTolerance tolerance;       ///< the bound this rate was held to
};

/// The sweep artifact (bench_out/BENCH_incomplete.json).
struct MissingSweepReport {
  bool full = false;
  uint64_t seed = 0;
  uint64_t drop_seed = 0;  ///< seed of the per-node drop decision
  MissingAttrPolicy policy = MissingAttrPolicy::kZero;
  int64_t nodes = 0;
  int64_t edges = 0;
  int64_t attributes = 0;
  std::vector<MissingRateReport> rates;
  /// Bit-identity rows at determinism_rate (the kBitIdentical rows of
  /// DefaultQualityMatrix: threads8/resume/shards1), gated against that
  /// rate's sweep row.
  std::vector<QualityCaseReport> determinism;
  bool all_pass = false;
  double total_seconds = 0.0;
};

/// Per-rate tolerance for the degradation gate. Calibrated like the
/// shard-averaging bounds (config_matrix.cc): a seed sweep of observed
/// |delta| envelopes with headroom, per substrate scale. Monotone in the
/// rate — more missing data legitimately costs more metric.
MetricTolerance MissingRateTolerance(bool full, double rate);

/// Returns `substrate` with the attribute rows of a deterministic `rate`
/// fraction of nodes dropped from BOTH its graphs (full and LP-train —
/// same node ids, same seed, hence the same mask). Pure function of
/// (substrate, rate, seed).
Result<QualitySubstrate> DegradeSubstrate(const QualitySubstrate& substrate,
                                          double rate, uint64_t seed);

/// Runs the whole sweep. Like RunQualityHarness, gate failures land in
/// the report (all_pass=false); only infrastructure errors return
/// non-OK. The first rate must be 0.
Result<MissingSweepReport> RunMissingRateSweep(
    const MissingSweepOptions& options);

/// JSON rendering (stable key order; the report-JSON rule of DESIGN.md
/// §9). "delta" and "tolerance" appear on gated rates.
std::string RenderMissingSweepJson(const MissingSweepReport& report);

/// RenderMissingSweepJson + WriteJsonFile.
Status WriteMissingSweepJson(const MissingSweepReport& report,
                             const std::string& path);

}  // namespace quality
}  // namespace coane

#endif  // COANE_QUALITY_MISSING_SWEEP_H_

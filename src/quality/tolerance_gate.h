#ifndef COANE_QUALITY_TOLERANCE_GATE_H_
#define COANE_QUALITY_TOLERANCE_GATE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "eval/metric_suite.h"

namespace coane {
namespace quality {

/// The two gate classes of the quality harness (DESIGN.md §9).
///
/// kBitIdentical applies wherever the PR 3 determinism contract holds —
/// thread counts, kill+resume, --shards=1, worker placement: the
/// embedding artifact must carry the same bytes (checked by CRC) and the
/// metric doubles must be exactly equal. Any drift here is a broken
/// contract, not a quality judgment call, so there is no epsilon.
///
/// kTolerance applies where averaging legitimately perturbs the result —
/// multi-shard runs and degraded-quorum rounds change the optimization
/// trajectory by construction. Each metric gets an explicit absolute
/// tolerance, recorded per-configuration in the report so the bound a PR
/// was held to is part of the trajectory artifact.
enum class GateClass { kBitIdentical, kTolerance };

/// Per-metric absolute tolerances for GateClass::kTolerance. The roster
/// matches MetricSuite::Entries().
struct MetricTolerance {
  double macro_f1 = 0.0;
  double micro_f1 = 0.0;
  double link_auc = 0.0;
  double nmi = 0.0;

  /// Tolerance for the metric named `name`; 0 for unknown names (which
  /// makes a roster mismatch fail loudly instead of passing silently).
  double For(const std::string& name) const;
};

/// One gated comparison against the baseline configuration.
struct GateVerdict {
  bool pass = true;
  /// Human-readable reasons, one per violated bound (empty when passing).
  std::vector<std::string> failures;
  /// Per-metric |candidate - baseline|, in MetricSuite::Entries() order;
  /// filled by CheckGate for both gate classes (NaN when either side is).
  std::vector<double> deltas;
};

/// Applies `gate` to a candidate suite against the baseline.
/// For kBitIdentical the artifact CRCs participate: pass requires
/// baseline_crcs == candidate_crcs elementwise AND exact metric equality.
/// For kTolerance only the metric deltas are bounded; CRCs are ignored
/// (they differ by construction).
GateVerdict CheckGate(GateClass gate, const MetricSuite& baseline,
                      const MetricSuite& candidate,
                      const MetricTolerance& tolerance,
                      const std::vector<uint32_t>& baseline_crcs,
                      const std::vector<uint32_t>& candidate_crcs);

/// Names for reports and tables.
std::string GateClassName(GateClass gate);

}  // namespace quality
}  // namespace coane

#endif  // COANE_QUALITY_TOLERANCE_GATE_H_

#ifndef COANE_QUALITY_CONFIG_MATRIX_H_
#define COANE_QUALITY_CONFIG_MATRIX_H_

#include <string>
#include <vector>

#include "quality/tolerance_gate.h"

namespace coane {
namespace quality {

/// How one configuration produces its embedding artifacts.
enum class RunMode {
  /// Plain in-process training (TrainCoaneEmbeddings) at `threads`.
  kDirect,
  /// Train to the midpoint, checkpoint, tear the model down, resume from
  /// the checkpoint in a fresh model, finish — the kill+resume seam the
  /// supervisor exercises with real SIGKILLs (recovery tier). The first
  /// half runs single-threaded, the second at `threads`, so the case also
  /// asserts cross-thread-count resume.
  kResume,
  /// Sharded training through dist::Coordinator + InProcessLauncher:
  /// `shards` workers, parameter averaging at round barriers. With
  /// dead_shard >= 0 that shard is killed on every attempt and rounds
  /// commit degraded at `quorum` — the fault-tolerance path under a
  /// quality lens.
  kSharded,
};

/// One row of the config matrix: what to run and how to judge it.
struct QualityCase {
  std::string name;
  RunMode mode = RunMode::kDirect;
  int threads = 1;
  int shards = 1;
  /// 0 = all shards (kSharded only).
  int quorum = 0;
  /// Epochs between averaging barriers (kSharded only).
  int round_epochs = 2;
  /// Shard id that dies on every attempt (-1 = none; kSharded only).
  int dead_shard = -1;
  /// Marks the reference row: no gate, every other row compares to it.
  bool is_baseline = false;
  GateClass gate = GateClass::kBitIdentical;
  /// Bounds for GateClass::kTolerance; ignored for kBitIdentical.
  MetricTolerance tolerance = {};
};

/// Default tolerance for plain multi-shard averaging. Parameter averaging
/// changes the optimization trajectory, not the problem: the bound is
/// calibrated per substrate from a seed sweep of observed deltas with
/// ~1.5-2x headroom (see DESIGN.md §9 for the calibration rationale).
/// The full substrate trains to a much stronger baseline, so averaging
/// costs more in absolute metric terms — hence per-mode bounds.
MetricTolerance ShardAveragingTolerance(bool full);

/// Wider tolerance for degraded-quorum rounds: losing a shard removes
/// walk/context evidence on top of perturbing the average.
MetricTolerance DegradedQuorumTolerance(bool full);

/// The standard matrix of DESIGN.md §9:
///   baseline      1 thread, 1 process              (reference row)
///   threads8      8 threads                        bit-identical
///   resume        checkpoint/kill/resume, 1->8 thr bit-identical
///   shards1       coane_distd-style, one shard     bit-identical
///   shards4       4 shards, parameter averaging    tolerance
///   shards4-degraded  4 shards, quorum 3, 1 dead   tolerance (wider)
///   shards4-rounds1   4 shards, 1-epoch rounds     tolerance (full only)
/// The fast subset keeps the gate cheap enough to run per-PR under
/// sanitizers; `full` adds the round-cadence row on the bench substrate.
std::vector<QualityCase> DefaultQualityMatrix(bool full);

}  // namespace quality
}  // namespace coane

#endif  // COANE_QUALITY_CONFIG_MATRIX_H_

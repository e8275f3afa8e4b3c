#include "dist/merge.h"

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace coane {
namespace dist {
namespace {

/// Sorted double-precision mean of `vals` (modifies vals in place).
/// Sorting before summation makes the result a pure function of the
/// value *multiset* — independent of input order — and dividing by the
/// count (instead of multiplying by its reciprocal) makes the average of
/// n identical values bit-exact: n*v is exact in double (24-bit mantissa
/// times a small integer) and correctly-rounded division returns the
/// representable true quotient v.
double SortedMean(std::vector<double>& vals) {
  std::sort(vals.begin(), vals.end());
  double sum = 0.0;
  for (double v : vals) sum += v;
  return sum / static_cast<double>(vals.size());
}

/// Per element, the SortedMean of equally-shaped matrices. A shape that
/// differs from shard 0's is kDataLoss.
Result<DenseMatrix> AverageMatrices(
    const std::vector<const DenseMatrix*>& shards) {
  const int64_t rows = shards[0]->rows();
  const int64_t cols = shards[0]->cols();
  for (size_t k = 1; k < shards.size(); ++k) {
    if (!shards[k]->SameShape(*shards[0])) {
      return Status::DataLoss(
          "shape mismatch: shard " + std::to_string(k) + " is " +
          std::to_string(shards[k]->rows()) + "x" +
          std::to_string(shards[k]->cols()) + ", shard 0 is " +
          std::to_string(rows) + "x" + std::to_string(cols));
    }
  }
  DenseMatrix merged(rows, cols, 0.0f);
  std::vector<double> vals(shards.size());
  for (int64_t i = 0; i < merged.size(); ++i) {
    for (size_t k = 0; k < shards.size(); ++k) {
      vals[k] = static_cast<double>(shards[k]->data()[i]);
    }
    merged.data()[i] = static_cast<float>(SortedMean(vals));
  }
  return merged;
}

}  // namespace

Result<TrainingCheckpoint> AverageCheckpoints(
    const std::vector<const TrainingCheckpoint*>& shards,
    uint64_t merged_fingerprint) {
  if (shards.empty()) {
    return Status::InvalidArgument("nothing to merge: no shard states");
  }
  const TrainingCheckpoint& first = *shards[0];
  for (size_t k = 1; k < shards.size(); ++k) {
    if (shards[k]->epochs_done != first.epochs_done) {
      return Status::FailedPrecondition(
          "shard " + std::to_string(k) + " is at epoch " +
          std::to_string(shards[k]->epochs_done) + ", shard 0 at " +
          std::to_string(first.epochs_done) +
          " — merges require a common round boundary");
    }
    if (shards[k]->data_fingerprint != first.data_fingerprint) {
      return Status::FailedPrecondition(
          "shard " + std::to_string(k) +
          " trained against differently-masked attribute data");
    }
    // The same number of matrices per section (so also the same decoder
    // presence) and the same Adam step per slot, so the per-matrix lists
    // below line up.
    if (shards[k]->encoder.size() != first.encoder.size() ||
        shards[k]->decoder.size() != first.decoder.size() ||
        shards[k]->adam.size() != first.adam.size()) {
      return Status::DataLoss(
          "shard " + std::to_string(k) +
          " has a different number of encoder matrices, decoder layers "
          "or optimizer slots than shard 0");
    }
    for (size_t slot = 0; slot < first.adam.size(); ++slot) {
      const int64_t step = shards[k]->adam[slot].step;
      if (step != first.adam[slot].step) {
        return Status::FailedPrecondition(
            "optimizer step mismatch in slot " + std::to_string(slot) +
            ": shard " + std::to_string(k) + " is at step " +
            std::to_string(step) + ", shard 0 at " +
            std::to_string(first.adam[slot].step) +
            " — shards did not stop at the same round boundary");
      }
    }
  }

  TrainingCheckpoint merged;
  merged.epochs_done = first.epochs_done;
  merged.config_fingerprint = merged_fingerprint;
  merged.data_fingerprint = first.data_fingerprint;
  // No rng_state: a parameter artifact, not a resumable state.
  std::vector<double> lrs;
  for (const TrainingCheckpoint* shard : shards) {
    lrs.push_back(static_cast<double>(shard->learning_rate));
  }
  merged.learning_rate = static_cast<float>(SortedMean(lrs));
  merged.encoder.resize(first.encoder.size());
  merged.decoder.resize(first.decoder.size());
  for (const AdamSlotState& slot : first.adam) {
    merged.adam.push_back({slot.step, DenseMatrix(), DenseMatrix()});
  }

  std::vector<std::vector<const DenseMatrix*>> inputs(shards.size());
  for (size_t k = 0; k < shards.size(); ++k) {
    ForEachMatrix(*shards[k],
                  [&](const DenseMatrix& m) { inputs[k].push_back(&m); });
  }
  std::vector<DenseMatrix*> outputs;
  ForEachMatrix(merged, [&](DenseMatrix& m) { outputs.push_back(&m); });
  std::vector<const DenseMatrix*> column(shards.size());
  for (size_t j = 0; j < outputs.size(); ++j) {
    for (size_t k = 0; k < shards.size(); ++k) column[k] = inputs[k][j];
    auto average = AverageMatrices(column);
    if (!average.ok()) {
      return Status::DataLoss("state matrix " + std::to_string(j) + ": " +
                              average.status().message());
    }
    *outputs[j] = std::move(average).ValueOrDie();
  }
  return merged;
}

Result<DenseMatrix> AverageEmbeddings(
    const std::vector<const DenseMatrix*>& shards) {
  if (shards.empty()) {
    return Status::InvalidArgument("nothing to merge: no embedding sets");
  }
  auto merged = AverageMatrices(shards);
  if (merged.ok()) return merged;
  return Status::DataLoss("embedding " + merged.status().message());
}

}  // namespace dist
}  // namespace coane

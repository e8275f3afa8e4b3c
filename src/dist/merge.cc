#include "dist/merge.h"

#include <algorithm>
#include <cstdint>
#include <string>

#include "nn/serialize.h"

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

/// Averages one matrix (header + payload) drawn from every reader in
/// lockstep. All shards must present the same shape; per element the
/// shard values are averaged with SortedMean, so the merged bytes are
/// invariant to the order the shard blobs are presented in.
Status AverageOneMatrix(std::vector<ByteReader>& readers,
                        std::string* out) {
  int64_t rows = 0, cols = 0;
  for (size_t k = 0; k < readers.size(); ++k) {
    int64_t r = 0, c = 0;
    if (!readers[k].ReadI64(&r) || !readers[k].ReadI64(&c)) {
      return Status::DataLoss("truncated matrix header in shard blob " +
                              std::to_string(k));
    }
    if (k == 0) {
      rows = r;
      cols = c;
      if (rows < 0 || cols < 0) {
        return Status::DataLoss("negative matrix shape in shard blob");
      }
    } else if (r != rows || c != cols) {
      return Status::DataLoss(
          "shard blob " + std::to_string(k) + " matrix is " +
          std::to_string(r) + "x" + std::to_string(c) +
          ", shard 0 has " + std::to_string(rows) + "x" +
          std::to_string(cols));
    }
  }
  // The payload is rows * cols floats. Check the shape against every
  // shard's remaining bytes by division, so a crafted shape can neither
  // overflow the product nor outrun the blob.
  for (size_t k = 0; k < readers.size(); ++k) {
    const uint64_t floats_left = readers[k].remaining() / sizeof(float);
    if (rows != 0 && static_cast<uint64_t>(cols) >
                         floats_left / static_cast<uint64_t>(rows)) {
      return Status::DataLoss(
          "matrix shape " + std::to_string(rows) + "x" +
          std::to_string(cols) + " in shard blob " + std::to_string(k) +
          " exceeds its remaining " +
          std::to_string(readers[k].remaining()) + " byte(s)");
    }
  }
  AppendI64(out, rows);
  AppendI64(out, cols);
  std::vector<double> vals(readers.size());
  const int64_t elements = rows * cols;
  for (int64_t i = 0; i < elements; ++i) {
    for (size_t k = 0; k < readers.size(); ++k) {
      float v = 0.0f;
      if (!readers[k].ReadF32(&v)) {
        return Status::DataLoss("truncated matrix payload in shard blob " +
                                std::to_string(k));
      }
      vals[k] = static_cast<double>(v);
    }
    AppendF32(out, static_cast<float>(SortedMean(vals)));
  }
  return Status::OK();
}

/// Averages a blob of layout "u32 count, then matrices until the end"
/// (encoder weights, MLP weights). The count is a structural field and
/// must agree; after the last matrix every reader must be exhausted.
Status AverageMatrixBlob(const std::vector<const std::string*>& blobs,
                         const char* what, std::string* out) {
  std::vector<ByteReader> readers;
  readers.reserve(blobs.size());
  for (const std::string* blob : blobs) readers.emplace_back(*blob);

  uint32_t count = 0;
  for (size_t k = 0; k < readers.size(); ++k) {
    uint32_t c = 0;
    if (!readers[k].ReadU32(&c)) {
      return Status::DataLoss(std::string("truncated ") + what +
                              " blob in shard " + std::to_string(k));
    }
    if (k == 0) {
      count = c;
    } else if (c != count) {
      return Status::DataLoss(std::string(what) + " blob count mismatch: " +
                              "shard " + std::to_string(k) + " has " +
                              std::to_string(c) + ", shard 0 has " +
                              std::to_string(count));
    }
  }
  AppendU32(out, count);
  while (readers[0].remaining() > 0) {
    COANE_RETURN_IF_ERROR(AverageOneMatrix(readers, out));
  }
  for (size_t k = 0; k < readers.size(); ++k) {
    if (readers[k].remaining() != 0) {
      return Status::DataLoss(std::string(what) + " blob of shard " +
                              std::to_string(k) +
                              " has trailing bytes (structure mismatch)");
    }
  }
  return Status::OK();
}

/// Averages the Adam payload: slot count and per-slot step counters are
/// structural (must be identical — shards train the same number of
/// batches per round), the m/v moment matrices are averaged.
Status AverageAdamBlob(const std::vector<const std::string*>& blobs,
                       std::string* out) {
  std::vector<ByteReader> readers;
  readers.reserve(blobs.size());
  for (const std::string* blob : blobs) readers.emplace_back(*blob);

  uint32_t slots = 0;
  for (size_t k = 0; k < readers.size(); ++k) {
    uint32_t s = 0;
    if (!readers[k].ReadU32(&s)) {
      return Status::DataLoss("truncated optimizer blob in shard " +
                              std::to_string(k));
    }
    if (k == 0) {
      slots = s;
    } else if (s != slots) {
      return Status::DataLoss("optimizer slot count mismatch: shard " +
                              std::to_string(k) + " has " +
                              std::to_string(s) + ", shard 0 has " +
                              std::to_string(slots));
    }
  }
  AppendU32(out, slots);
  for (uint32_t slot = 0; slot < slots; ++slot) {
    int64_t step = 0;
    for (size_t k = 0; k < readers.size(); ++k) {
      int64_t s = 0;
      if (!readers[k].ReadI64(&s)) {
        return Status::DataLoss("truncated optimizer blob in shard " +
                                std::to_string(k));
      }
      if (k == 0) {
        step = s;
      } else if (s != step) {
        return Status::FailedPrecondition(
            "optimizer step mismatch in slot " + std::to_string(slot) +
            ": shard " + std::to_string(k) + " is at step " +
            std::to_string(s) + ", shard 0 at " + std::to_string(step) +
            " — shards did not stop at the same round boundary");
      }
    }
    AppendI64(out, step);
    COANE_RETURN_IF_ERROR(AverageOneMatrix(readers, out));  // m
    COANE_RETURN_IF_ERROR(AverageOneMatrix(readers, out));  // v
  }
  for (size_t k = 0; k < readers.size(); ++k) {
    if (readers[k].remaining() != 0) {
      return Status::DataLoss("optimizer blob of shard " +
                              std::to_string(k) + " has trailing bytes");
    }
  }
  return Status::OK();
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
    if (shards[k]->has_decoder != first.has_decoder) {
      return Status::DataLoss("decoder presence differs across shards");
    }
    if (shards[k]->data_fingerprint != first.data_fingerprint) {
      return Status::FailedPrecondition(
          "shard " + std::to_string(k) +
          " trained against differently-masked attribute data");
    }
  }

  TrainingCheckpoint merged;
  merged.epochs_done = first.epochs_done;
  merged.config_fingerprint = merged_fingerprint;
  merged.data_fingerprint = first.data_fingerprint;
  merged.has_decoder = first.has_decoder;
  merged.rng_state.clear();  // parameter artifact, not a resumable state

  std::vector<double> lrs;
  std::vector<const std::string*> encoder_blobs, decoder_blobs, adam_blobs;
  for (const TrainingCheckpoint* shard : shards) {
    lrs.push_back(static_cast<double>(shard->learning_rate));
    encoder_blobs.push_back(&shard->encoder_blob);
    decoder_blobs.push_back(&shard->decoder_blob);
    adam_blobs.push_back(&shard->optimizer_blob);
  }
  merged.learning_rate = static_cast<float>(SortedMean(lrs));

  COANE_RETURN_IF_ERROR(
      AverageMatrixBlob(encoder_blobs, "encoder", &merged.encoder_blob));
  if (first.has_decoder) {
    COANE_RETURN_IF_ERROR(
        AverageMatrixBlob(decoder_blobs, "decoder", &merged.decoder_blob));
  }
  COANE_RETURN_IF_ERROR(AverageAdamBlob(adam_blobs, &merged.optimizer_blob));
  return merged;
}

Result<DenseMatrix> AverageEmbeddings(
    const std::vector<const DenseMatrix*>& shards) {
  if (shards.empty()) {
    return Status::InvalidArgument("nothing to merge: no embedding sets");
  }
  const int64_t rows = shards[0]->rows();
  const int64_t cols = shards[0]->cols();
  for (size_t k = 1; k < shards.size(); ++k) {
    if (shards[k]->rows() != rows || shards[k]->cols() != cols) {
      return Status::DataLoss(
          "embedding shape mismatch: shard " + std::to_string(k) + " is " +
          std::to_string(shards[k]->rows()) + "x" +
          std::to_string(shards[k]->cols()) + ", shard 0 is " +
          std::to_string(rows) + "x" + std::to_string(cols));
    }
  }
  DenseMatrix merged(rows, cols, 0.0f);
  std::vector<double> vals(shards.size());
  for (int64_t i = 0; i < rows; ++i) {
    float* out_row = merged.Row(i);
    for (int64_t j = 0; j < cols; ++j) {
      for (size_t k = 0; k < shards.size(); ++k) {
        vals[k] = static_cast<double>(shards[k]->At(i, j));
      }
      out_row[j] = static_cast<float>(SortedMean(vals));
    }
  }
  return merged;
}

}  // namespace dist
}  // namespace coane

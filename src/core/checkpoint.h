#ifndef COANE_CORE_CHECKPOINT_H_
#define COANE_CORE_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/coane_config.h"
#include "la/dense_matrix.h"
#include "nn/serialize.h"

namespace coane {

/// Versioned, checksummed container for the full CoANE training state.
///
/// File layout (all integers little-endian, fixed width):
///
///   magic   u32  0x434F414E ("COAN")
///   version u32  kCheckpointFormatVersion
///   count   u32  number of sections
///   then per section:
///     id    u32  SectionId below
///     len   u64  payload byte length
///     crc   u32  CRC-32 of the payload bytes
///     payload
///
/// Every section is independently CRC-guarded: a truncated file, a
/// bit-flipped byte, or a foreign file is rejected with kDataLoss and the
/// caller's in-memory state is left untouched. Files are written via
/// WriteFileAtomic (temp + fsync + rename), so a crash mid-save preserves
/// the previous checkpoint. Section payloads use src/nn/serialize.h.
constexpr uint32_t kCheckpointMagic = 0x434F414Eu;
constexpr uint32_t kCheckpointFormatVersion = 1;

/// The full training state as matrices. CoaneModel captures and adopts
/// it; WriteCheckpointFile/ReadCheckpointFile are the only places that
/// turn it into section bytes and back (layouts in src/nn/serialize.h).
struct TrainingCheckpoint {
  int64_t epochs_done = 0;
  float learning_rate = 0.0f;      // current (possibly decayed) Adam lr
  uint64_t config_fingerprint = 0; // rejects resume under a changed config
  /// Fingerprint of the training *data* the run consumed — today the
  /// attribute observation mask (AttrMaskFingerprint), 0 for complete
  /// data. Written by every save; files from before the field read back
  /// as 0, which loaders treat as "unknown, accept". A nonzero mismatch
  /// rejects the resume: continuing a run against differently-degraded
  /// data would silently train on different features.
  uint64_t data_fingerprint = 0;
  std::string rng_state;               // Rng::SerializeState text
  std::vector<DenseMatrix> encoder;    // ContextEncoder weight matrices
  std::vector<LayerWeights> decoder;   // per MLP layer; empty: no decoder
  std::vector<AdamSlotState> adam;     // per Adam slot, Register() order
};

/// Calls `fn` on every matrix of `c` (const or not) in section order: the
/// encoder's, then each decoder layer's weight and bias, then each Adam
/// slot's m and v.
template <typename Checkpoint, typename Fn>
void ForEachMatrix(Checkpoint& c, Fn&& fn) {
  for (auto& w : c.encoder) fn(w);
  for (auto& layer : c.decoder) {
    fn(layer.weight);
    fn(layer.bias);
  }
  for (auto& slot : c.adam) {
    fn(slot.m);
    fn(slot.v);
  }
}

/// Writes `ckpt` to `path` atomically. Fault point: "checkpoint.write".
Status WriteCheckpointFile(const std::string& path,
                           const TrainingCheckpoint& ckpt);

/// Parses and CRC-verifies `path`. Returns ReadFileToString's error when
/// the file cannot be read (kNotFound when it is missing) and kDataLoss for any structural or checksum failure: also for
/// a repeated section id, bytes after the last section, epochs_done
/// outside [0, INT32_MAX], a non-finite or negative learning rate, a
/// matrix shape that does not fit its section's bytes, a negative Adam
/// step, or bytes left in a section after its data.
Result<TrainingCheckpoint> ReadCheckpointFile(const std::string& path);

/// CRC-verifies `path` and returns just its epochs_done. The supervisor
/// uses this as its progress probe: "did the child advance past the epoch
/// it crashed at last time?". Same error contract as ReadCheckpointFile.
Result<int64_t> ReadCheckpointEpoch(const std::string& path);

/// FNV-1a digest of every CoaneConfig field that shapes parameters or the
/// deterministic preprocessing stream. Two runs can only exchange
/// checkpoints when their fingerprints match.
uint64_t ConfigFingerprint(const CoaneConfig& config);

}  // namespace coane

#endif  // COANE_CORE_CHECKPOINT_H_

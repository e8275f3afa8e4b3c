#include "core/checkpoint.h"

#include <cmath>
#include <limits>
#include <map>

#include "common/atomic_file.h"
#include "common/checksum.h"
#include "common/fnv.h"
#include "nn/serialize.h"

namespace coane {
namespace {

enum SectionId : uint32_t {
  kMeta = 1,
  kRng = 2,
  kEncoder = 3,
  kDecoder = 4,
  kOptimizer = 5,
};

void AppendSection(std::string* out, uint32_t id,
                   const std::string& payload) {
  AppendU32(out, id);
  AppendU64(out, payload.size());
  AppendU32(out, Crc32(payload));
  out->append(payload);
}

// FNV-1a over the in-memory bytes of one config field.
template <typename T>
void HashValue(uint64_t* h, T v) {
  *h = FnvMixBytes(*h, &v, sizeof(v));
}

}  // namespace

uint64_t ConfigFingerprint(const CoaneConfig& c) {
  uint64_t h = kFnvBasis;
  // Preprocessing determinism: anything that shifts the seeded RNG stream
  // or the generated contexts shifts the fingerprint.
  HashValue(&h, c.seed);
  HashValue(&h, c.num_walks);
  HashValue(&h, c.walk_length);
  HashValue(&h, c.context_size);
  HashValue(&h, c.subsample_t);
  HashValue(&h, static_cast<int>(c.negative_mode));
  HashValue(&h, c.num_negative);
  HashValue(&h, c.presample_pool_factor);
  HashValue(&h, c.dtilde_normalize_after_add);
  HashValue(&h, c.positive_topk);
  HashValue(&h, c.skipgram_positive);
  HashValue(&h, c.use_attributes);
  // Imputation policy: two runs with different policies train on
  // different feature matrices, so their checkpoints must not mix.
  HashValue(&h, static_cast<int>(c.missing_attrs));
  // Parameter shapes.
  HashValue(&h, c.embedding_dim);
  HashValue(&h, static_cast<int>(c.encoder_kind));
  HashValue(&h, c.use_attribute_loss);
  for (int64_t w : c.decoder_hidden) HashValue(&h, w);
  // Batch schedule (affects the per-epoch RNG consumption).
  HashValue(&h, c.batch_size);
  return h;
}

Status WriteCheckpointFile(const std::string& path,
                           const TrainingCheckpoint& ckpt) {
  std::string meta;
  AppendI64(&meta, ckpt.epochs_done);
  AppendF32(&meta, ckpt.learning_rate);
  AppendU64(&meta, ckpt.config_fingerprint);
  AppendU32(&meta, ckpt.has_decoder ? 1 : 0);
  // Appended after the original fields so pre-field readers (which stop
  // at has_decoder) and pre-field files (which simply end there) both
  // keep working without a format-version bump.
  AppendU64(&meta, ckpt.data_fingerprint);

  std::string out;
  AppendU32(&out, kCheckpointMagic);
  AppendU32(&out, kCheckpointFormatVersion);
  const uint32_t count = ckpt.has_decoder ? 5 : 4;
  AppendU32(&out, count);
  AppendSection(&out, kMeta, meta);
  AppendSection(&out, kRng, ckpt.rng_state);
  AppendSection(&out, kEncoder, ckpt.encoder_blob);
  if (ckpt.has_decoder) AppendSection(&out, kDecoder, ckpt.decoder_blob);
  AppendSection(&out, kOptimizer, ckpt.optimizer_blob);

  return WriteFileAtomic(path, out, "checkpoint.write");
}

Result<TrainingCheckpoint> ReadCheckpointFile(const std::string& path) {
  auto contents = ReadFileToString(path);
  if (!contents.ok()) return contents.status();
  ByteReader reader(contents.value());

  uint32_t magic = 0, version = 0, count = 0;
  if (!reader.ReadU32(&magic) || !reader.ReadU32(&version) ||
      !reader.ReadU32(&count)) {
    return Status::DataLoss("checkpoint header truncated: " + path);
  }
  if (magic != kCheckpointMagic) {
    return Status::DataLoss("bad checkpoint magic in " + path);
  }
  if (version != kCheckpointFormatVersion) {
    return Status::DataLoss("unsupported checkpoint format version " +
                            std::to_string(version) + " in " + path);
  }

  std::map<uint32_t, std::string> sections;
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t id = 0, crc = 0;
    uint64_t len = 0;
    if (!reader.ReadU32(&id) || !reader.ReadU64(&len) ||
        !reader.ReadU32(&crc)) {
      return Status::DataLoss("checkpoint section header truncated: " +
                              path);
    }
    std::string payload;
    if (!reader.ReadBytes(len, &payload)) {
      return Status::DataLoss("checkpoint section " + std::to_string(id) +
                              " truncated: " + path);
    }
    if (Crc32(payload) != crc) {
      return Status::DataLoss("checksum mismatch in checkpoint section " +
                              std::to_string(id) + ": " + path);
    }
    if (!sections.emplace(id, std::move(payload)).second) {
      return Status::DataLoss("checkpoint section " + std::to_string(id) +
                              " appears twice: " + path);
    }
  }
  if (reader.remaining() != 0) {
    return Status::DataLoss(std::to_string(reader.remaining()) +
                            " byte(s) after the last checkpoint section: " +
                            path);
  }

  auto require = [&sections, &path](uint32_t id) -> Result<std::string> {
    auto it = sections.find(id);
    if (it == sections.end()) {
      return Status::DataLoss("checkpoint missing section " +
                              std::to_string(id) + ": " + path);
    }
    return it->second;
  };

  auto meta = require(kMeta);
  if (!meta.ok()) return meta.status();
  TrainingCheckpoint ckpt;
  {
    ByteReader m(meta.value());
    uint32_t has_decoder = 0;
    if (!m.ReadI64(&ckpt.epochs_done) || !m.ReadF32(&ckpt.learning_rate) ||
        !m.ReadU64(&ckpt.config_fingerprint) || !m.ReadU32(&has_decoder)) {
      return Status::DataLoss("checkpoint meta section malformed: " + path);
    }
    // LoadCheckpoint narrows epochs_done to int; a non-finite learning
    // rate poisons the first Adam step and a negative one ascends.
    if (ckpt.epochs_done < 0 ||
        ckpt.epochs_done > std::numeric_limits<int32_t>::max()) {
      return Status::DataLoss("checkpoint epochs_done " +
                              std::to_string(ckpt.epochs_done) +
                              " out of range: " + path);
    }
    if (!std::isfinite(ckpt.learning_rate) || ckpt.learning_rate < 0.0f) {
      return Status::DataLoss("checkpoint learning rate " +
                              std::to_string(ckpt.learning_rate) +
                              " is not a finite non-negative number: " +
                              path);
    }
    ckpt.has_decoder = has_decoder != 0;
    // Optional trailing field (see WriteCheckpointFile): absent in
    // pre-field files, leaving the default 0 = "unknown".
    uint64_t data_fp = 0;
    if (m.ReadU64(&data_fp)) ckpt.data_fingerprint = data_fp;
  }

  auto rng = require(kRng);
  if (!rng.ok()) return rng.status();
  ckpt.rng_state = std::move(rng).ValueOrDie();

  auto encoder = require(kEncoder);
  if (!encoder.ok()) return encoder.status();
  ckpt.encoder_blob = std::move(encoder).ValueOrDie();

  if (ckpt.has_decoder) {
    auto decoder = require(kDecoder);
    if (!decoder.ok()) return decoder.status();
    ckpt.decoder_blob = std::move(decoder).ValueOrDie();
  }

  auto optimizer = require(kOptimizer);
  if (!optimizer.ok()) return optimizer.status();
  ckpt.optimizer_blob = std::move(optimizer).ValueOrDie();

  return ckpt;
}

Result<int64_t> ReadCheckpointEpoch(const std::string& path) {
  auto ckpt = ReadCheckpointFile(path);
  if (!ckpt.ok()) return ckpt.status();
  return ckpt.value().epochs_done;
}

}  // namespace coane

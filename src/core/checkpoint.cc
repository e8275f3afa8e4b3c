#include "core/checkpoint.h"

#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <string_view>

#include "common/atomic_file.h"
#include "common/checksum.h"
#include "common/fnv.h"

namespace coane {
namespace {

enum SectionId : uint32_t {
  kMeta = 1,
  kRng = 2,
  kEncoder = 3,
  kDecoder = 4,
  kOptimizer = 5,
};

// Appends section `id`: its header, the payload `write` appends, then the
// payload's length and CRC patched into the header.
template <typename Write>
void AppendSection(std::string* out, uint32_t id, Write&& write) {
  AppendU32(out, id);
  const size_t header = out->size();
  AppendU64(out, 0);
  AppendU32(out, 0);
  const size_t begin = out->size();
  write(out);
  const uint64_t len = out->size() - begin;
  const uint32_t crc = Crc32(out->data() + begin, len);
  std::memcpy(&(*out)[header], &len, sizeof(len));
  std::memcpy(&(*out)[header + sizeof(len)], &crc, sizeof(crc));
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
  const bool has_decoder = !ckpt.decoder.empty();
  AppendU32(&meta, has_decoder ? 1 : 0);
  // Appended after the original fields so pre-field readers (which stop
  // at has_decoder) and pre-field files (which simply end there) both
  // keep working without a format-version bump.
  AppendU64(&meta, ckpt.data_fingerprint);

  const uint32_t count = has_decoder ? 5 : 4;
  // The exact file size, so the buffer is allocated once: headers, meta,
  // RNG, section counts, Adam steps, and each matrix's dims and floats.
  size_t size = 3 * sizeof(uint32_t) + count * 16 + meta.size() +
                ckpt.rng_state.size() + (count - 2) * sizeof(uint32_t) +
                ckpt.adam.size() * sizeof(int64_t);
  ForEachMatrix(ckpt, [&size](const DenseMatrix& m) {
    size += 2 * sizeof(int64_t) +
            static_cast<size_t>(m.size()) * sizeof(float);
  });
  std::string out;
  out.reserve(size);
  AppendU32(&out, kCheckpointMagic);
  AppendU32(&out, kCheckpointFormatVersion);
  AppendU32(&out, count);
  AppendSection(&out, kMeta, [&](std::string* s) { s->append(meta); });
  AppendSection(&out, kRng,
                [&](std::string* s) { s->append(ckpt.rng_state); });
  AppendSection(&out, kEncoder, [&](std::string* s) {
    AppendEncoderWeights(s, ckpt.encoder);
  });
  if (has_decoder) {
    AppendSection(&out, kDecoder, [&](std::string* s) {
      AppendMlpWeights(s, ckpt.decoder);
    });
  }
  AppendSection(&out, kOptimizer, [&](std::string* s) {
    AppendAdamState(s, ckpt.adam);
  });

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

  // Payloads stay views into `contents` until they are parsed.
  std::map<uint32_t, std::string_view> sections;
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t id = 0, crc = 0;
    uint64_t len = 0;
    if (!reader.ReadU32(&id) || !reader.ReadU64(&len) ||
        !reader.ReadU32(&crc)) {
      return Status::DataLoss("checkpoint section header truncated: " +
                              path);
    }
    std::string_view payload;
    if (!reader.ReadView(len, &payload)) {
      return Status::DataLoss("checkpoint section " + std::to_string(id) +
                              " truncated: " + path);
    }
    if (Crc32(payload.data(), payload.size()) != crc) {
      return Status::DataLoss("checksum mismatch in checkpoint section " +
                              std::to_string(id) + ": " + path);
    }
    if (!sections.emplace(id, payload).second) {
      return Status::DataLoss("checkpoint section " + std::to_string(id) +
                              " appears twice: " + path);
    }
  }
  if (reader.remaining() != 0) {
    return Status::DataLoss(std::to_string(reader.remaining()) +
                            " byte(s) after the last checkpoint section: " +
                            path);
  }

  for (uint32_t id : {kMeta, kRng, kEncoder, kOptimizer}) {
    if (sections.count(id) == 0) {
      return Status::DataLoss("checkpoint missing section " +
                              std::to_string(id) + ": " + path);
    }
  }

  TrainingCheckpoint ckpt;
  uint32_t has_decoder = 0;
  {
    ByteReader m(sections[kMeta].data(), sections[kMeta].size());
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
    // Optional trailing field (see WriteCheckpointFile): absent in
    // pre-field files, leaving the default 0 = "unknown".
    uint64_t data_fp = 0;
    if (m.ReadU64(&data_fp)) ckpt.data_fingerprint = data_fp;
  }
  ckpt.rng_state = std::string(sections[kRng]);

  // Parses section `id` into `out` with `read`; bytes left after the data
  // are as foreign as missing ones. (A missing decoder section reads as
  // empty, which is truncated.)
  auto parse = [&sections, &path](uint32_t id, const char* name, auto read,
                                  auto* out) -> Status {
    ByteReader r(sections[id].data(), sections[id].size());
    Status st = read(&r, out);
    if (st.ok() && r.remaining() != 0) {
      st = Status::DataLoss(std::to_string(r.remaining()) +
                            " byte(s) after the section's data");
    }
    if (st.ok()) return st;
    return Status::DataLoss("checkpoint " + std::string(name) +
                            " section: " + st.message() + ": " + path);
  };
  COANE_RETURN_IF_ERROR(
      parse(kEncoder, "encoder", &ReadEncoderWeights, &ckpt.encoder));
  if (has_decoder != 0) {
    COANE_RETURN_IF_ERROR(
        parse(kDecoder, "decoder", &ReadMlpWeights, &ckpt.decoder));
    // An empty decoder means "no decoder" in memory; no writer sets the
    // flag for one.
    if (ckpt.decoder.empty()) {
      return Status::DataLoss("checkpoint decoder section has no layers: " +
                              path);
    }
  }
  COANE_RETURN_IF_ERROR(
      parse(kOptimizer, "optimizer", &ReadAdamState, &ckpt.adam));
  return ckpt;
}

Result<int64_t> ReadCheckpointEpoch(const std::string& path) {
  auto ckpt = ReadCheckpointFile(path);
  if (!ckpt.ok()) return ckpt.status();
  return ckpt.value().epochs_done;
}

}  // namespace coane

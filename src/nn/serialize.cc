#include "nn/serialize.h"

#include <cstring>

namespace coane {
namespace {

template <typename T>
void AppendRaw(std::string* out, T v) {
  char bytes[sizeof(T)];
  std::memcpy(bytes, &v, sizeof(T));
  out->append(bytes, sizeof(T));
}

void AppendMatrix(std::string* out, const DenseMatrix& m) {
  AppendI64(out, m.rows());
  AppendI64(out, m.cols());
  out->append(reinterpret_cast<const char*>(m.data()),
              static_cast<size_t>(m.size()) * sizeof(float));
}

Status ReadMatrix(ByteReader* reader, DenseMatrix* m) {
  int64_t rows = 0, cols = 0;
  if (!reader->ReadI64(&rows) || !reader->ReadI64(&cols)) {
    return Status::DataLoss("truncated matrix header");
  }
  // The payload is rows * cols floats. Check the shape against the bytes
  // left by division, so a crafted shape can neither overflow the product
  // nor size an allocation past the buffer.
  const uint64_t floats_left = reader->remaining() / sizeof(float);
  if (rows < 0 || cols < 0 ||
      (rows != 0 && static_cast<uint64_t>(cols) >
                        floats_left / static_cast<uint64_t>(rows))) {
    return Status::DataLoss(
        "matrix shape " + std::to_string(rows) + "x" + std::to_string(cols) +
        " exceeds the " + std::to_string(reader->remaining()) + " bytes left");
  }
  *m = DenseMatrix(rows, cols);
  if (!reader->ReadRaw(m->data(),
                       static_cast<size_t>(m->size()) * sizeof(float))) {
    return Status::DataLoss("truncated matrix payload");
  }
  return Status::OK();
}

// Reads a u32 count, then that many items with `read_one`. Nothing is
// reserved from the count: each item consumes at least one 16-byte matrix
// header, so the loop stops at the buffer's end whatever the count says.
template <typename T, typename ReadOne>
Status ReadList(ByteReader* reader, std::vector<T>* items, ReadOne read_one) {
  uint32_t count = 0;
  if (!reader->ReadU32(&count)) return Status::DataLoss("truncated count");
  items->clear();
  for (uint32_t i = 0; i < count; ++i) {
    T item;
    COANE_RETURN_IF_ERROR(read_one(&item));
    items->push_back(std::move(item));
  }
  return Status::OK();
}

}  // namespace

bool ByteReader::ReadRaw(void* out, size_t n) {
  if (remaining() < n) return false;
  std::memcpy(out, data_ + pos_, n);
  pos_ += n;
  return true;
}

bool ByteReader::ReadU32(uint32_t* v) { return ReadRaw(v, sizeof(*v)); }
bool ByteReader::ReadU64(uint64_t* v) { return ReadRaw(v, sizeof(*v)); }
bool ByteReader::ReadI64(int64_t* v) { return ReadRaw(v, sizeof(*v)); }
bool ByteReader::ReadF32(float* v) { return ReadRaw(v, sizeof(*v)); }

bool ByteReader::ReadView(size_t n, std::string_view* out) {
  if (remaining() < n) return false;
  *out = std::string_view(data_ + pos_, n);
  pos_ += n;
  return true;
}

void AppendU32(std::string* out, uint32_t v) { AppendRaw(out, v); }
void AppendU64(std::string* out, uint64_t v) { AppendRaw(out, v); }
void AppendI64(std::string* out, int64_t v) { AppendRaw(out, v); }
void AppendF32(std::string* out, float v) { AppendRaw(out, v); }

std::vector<LayerWeights> CaptureMlpWeights(const Mlp& mlp) {
  std::vector<LayerWeights> layers;
  for (size_t i = 0; i < mlp.num_layers(); ++i) {
    layers.push_back({mlp.layer(i).weight(), mlp.layer(i).bias()});
  }
  return layers;
}

std::vector<AdamSlotState> CaptureAdamState(const AdamOptimizer& optimizer) {
  std::vector<AdamSlotState> slots;
  for (int i = 0; i < optimizer.num_slots(); ++i) {
    slots.push_back({optimizer.slot_step(i), optimizer.slot_moment1(i),
                     optimizer.slot_moment2(i)});
  }
  return slots;
}

void AppendEncoderWeights(std::string* out,
                          const std::vector<DenseMatrix>& weights) {
  AppendU32(out, static_cast<uint32_t>(weights.size()));
  for (const DenseMatrix& w : weights) AppendMatrix(out, w);
}

Status ReadEncoderWeights(ByteReader* reader,
                          std::vector<DenseMatrix>* weights) {
  return ReadList(reader, weights,
                  [reader](DenseMatrix* w) { return ReadMatrix(reader, w); });
}

void AppendMlpWeights(std::string* out,
                      const std::vector<LayerWeights>& layers) {
  AppendU32(out, static_cast<uint32_t>(layers.size()));
  for (const LayerWeights& layer : layers) {
    AppendMatrix(out, layer.weight);
    AppendMatrix(out, layer.bias);
  }
}

Status ReadMlpWeights(ByteReader* reader, std::vector<LayerWeights>* layers) {
  return ReadList(reader, layers, [reader](LayerWeights* layer) {
    COANE_RETURN_IF_ERROR(ReadMatrix(reader, &layer->weight));
    return ReadMatrix(reader, &layer->bias);
  });
}

void AppendAdamState(std::string* out,
                     const std::vector<AdamSlotState>& slots) {
  AppendU32(out, static_cast<uint32_t>(slots.size()));
  for (const AdamSlotState& slot : slots) {
    AppendI64(out, slot.step);
    AppendMatrix(out, slot.m);
    AppendMatrix(out, slot.v);
  }
}

Status ReadAdamState(ByteReader* reader, std::vector<AdamSlotState>* slots) {
  return ReadList(reader, slots, [reader](AdamSlotState* slot) {
    if (!reader->ReadI64(&slot->step)) {
      return Status::DataLoss("truncated optimizer slot");
    }
    if (slot->step < 0) {
      // Adam's bias correction divides by 1 - beta^t for the incremented
      // count; a negative count makes that zero (t = 0) or negative.
      return Status::DataLoss("negative optimizer step count " +
                              std::to_string(slot->step));
    }
    COANE_RETURN_IF_ERROR(ReadMatrix(reader, &slot->m));
    return ReadMatrix(reader, &slot->v);
  });
}

void AppendEncoderWeights(std::string* out, const ContextEncoder& encoder) {
  AppendEncoderWeights(out, encoder.weight_matrices());
}

void AppendMlpWeights(std::string* out, const Mlp& mlp) {
  AppendMlpWeights(out, CaptureMlpWeights(mlp));
}

void AppendAdamState(std::string* out, const AdamOptimizer& optimizer) {
  AppendAdamState(out, CaptureAdamState(optimizer));
}

}  // namespace coane

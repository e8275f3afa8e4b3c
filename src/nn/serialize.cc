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

bool ByteReader::ReadBytes(size_t n, std::string* out) {
  if (remaining() < n) return false;
  out->assign(data_ + pos_, n);
  pos_ += n;
  return true;
}

void AppendU32(std::string* out, uint32_t v) { AppendRaw(out, v); }
void AppendU64(std::string* out, uint64_t v) { AppendRaw(out, v); }
void AppendI64(std::string* out, int64_t v) { AppendRaw(out, v); }
void AppendF32(std::string* out, float v) { AppendRaw(out, v); }

void AppendMatrix(std::string* out, const DenseMatrix& m) {
  AppendI64(out, m.rows());
  AppendI64(out, m.cols());
  out->append(reinterpret_cast<const char*>(m.data()),
              static_cast<size_t>(m.size()) * sizeof(float));
}

Status ReadMatrixInto(ByteReader* reader, DenseMatrix* m) {
  int64_t rows = 0, cols = 0;
  if (!reader->ReadI64(&rows) || !reader->ReadI64(&cols)) {
    return Status::DataLoss("truncated matrix header");
  }
  if (rows != m->rows() || cols != m->cols()) {
    return Status::DataLoss(
        "matrix shape mismatch: blob is " + std::to_string(rows) + "x" +
        std::to_string(cols) + ", target is " + std::to_string(m->rows()) +
        "x" + std::to_string(m->cols()));
  }
  if (!reader->ReadRaw(m->data(),
                       static_cast<size_t>(m->size()) * sizeof(float))) {
    return Status::DataLoss("truncated matrix payload");
  }
  return Status::OK();
}

void AppendEncoderWeights(std::string* out, const ContextEncoder& encoder) {
  AppendU32(out, static_cast<uint32_t>(encoder.num_weight_matrices()));
  for (int i = 0; i < encoder.num_weight_matrices(); ++i) {
    AppendMatrix(out, encoder.weight_matrix(i));
  }
}

Status ReadEncoderWeightsInto(ByteReader* reader, ContextEncoder* encoder) {
  uint32_t count = 0;
  if (!reader->ReadU32(&count)) {
    return Status::DataLoss("truncated encoder section");
  }
  if (count != static_cast<uint32_t>(encoder->num_weight_matrices())) {
    return Status::DataLoss("encoder filter count mismatch");
  }
  for (int i = 0; i < encoder->num_weight_matrices(); ++i) {
    COANE_RETURN_IF_ERROR(
        ReadMatrixInto(reader, encoder->mutable_weight_matrix(i)));
  }
  return Status::OK();
}

void AppendMlpWeights(std::string* out, const Mlp& mlp) {
  AppendU32(out, static_cast<uint32_t>(mlp.num_layers()));
  for (size_t i = 0; i < mlp.num_layers(); ++i) {
    AppendMatrix(out, mlp.layer(i).weight());
    AppendMatrix(out, mlp.layer(i).bias());
  }
}

Status ReadMlpWeightsInto(ByteReader* reader, Mlp* mlp) {
  uint32_t count = 0;
  if (!reader->ReadU32(&count)) {
    return Status::DataLoss("truncated MLP section");
  }
  if (count != static_cast<uint32_t>(mlp->num_layers())) {
    return Status::DataLoss("MLP layer count mismatch");
  }
  for (size_t i = 0; i < mlp->num_layers(); ++i) {
    Linear& layer = mlp->mutable_layer(i);
    COANE_RETURN_IF_ERROR(ReadMatrixInto(reader, layer.mutable_weight()));
    COANE_RETURN_IF_ERROR(ReadMatrixInto(reader, layer.mutable_bias()));
  }
  return Status::OK();
}

void AppendAdamState(std::string* out, const AdamOptimizer& optimizer) {
  AppendU32(out, static_cast<uint32_t>(optimizer.num_slots()));
  for (int i = 0; i < optimizer.num_slots(); ++i) {
    AppendI64(out, optimizer.slot_step(i));
    AppendMatrix(out, optimizer.slot_moment1(i));
    AppendMatrix(out, optimizer.slot_moment2(i));
  }
}

Status ReadAdamStateInto(ByteReader* reader, AdamOptimizer* optimizer) {
  uint32_t count = 0;
  if (!reader->ReadU32(&count)) {
    return Status::DataLoss("truncated optimizer section");
  }
  if (count != static_cast<uint32_t>(optimizer->num_slots())) {
    return Status::DataLoss("optimizer slot count mismatch");
  }
  for (int i = 0; i < optimizer->num_slots(); ++i) {
    int64_t t = 0;
    if (!reader->ReadI64(&t)) {
      return Status::DataLoss("truncated optimizer slot");
    }
    if (t < 0) {
      // Adam's bias correction divides by 1 - beta^t for the incremented
      // count; a negative count makes that zero (t = 0) or negative.
      return Status::DataLoss("negative step count " + std::to_string(t) +
                              " in optimizer slot " + std::to_string(i));
    }
    optimizer->set_slot_step(i, t);
    COANE_RETURN_IF_ERROR(
        ReadMatrixInto(reader, optimizer->mutable_slot_moment1(i)));
    COANE_RETURN_IF_ERROR(
        ReadMatrixInto(reader, optimizer->mutable_slot_moment2(i)));
  }
  return Status::OK();
}

}  // namespace coane

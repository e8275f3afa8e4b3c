#ifndef COANE_NN_SERIALIZE_H_
#define COANE_NN_SERIALIZE_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "la/dense_matrix.h"
#include "nn/adam.h"
#include "nn/context_conv.h"
#include "nn/mlp.h"

namespace coane {

/// Binary (little-endian, fixed-width) serialization of training state,
/// the payload layer of the checkpoint format in src/core/checkpoint.h.
/// Every Deserialize*Into restores into an object that was already
/// constructed with the same configuration — shapes are verified, so a
/// blob from a mismatched architecture yields kDataLoss instead of
/// silently scrambling weights. Append* never fails; Read* returns false
/// on truncation.

/// Cursor over a byte buffer for the Read* primitives.
class ByteReader {
 public:
  ByteReader(const char* data, size_t size) : data_(data), size_(size) {}
  explicit ByteReader(const std::string& buffer)
      : ByteReader(buffer.data(), buffer.size()) {}

  bool ReadU32(uint32_t* v);
  bool ReadU64(uint64_t* v);
  bool ReadI64(int64_t* v);
  bool ReadF32(float* v);
  /// Reads exactly `n` raw bytes into `out`.
  bool ReadBytes(size_t n, std::string* out);
  /// Copies exactly `n` raw bytes to `out`, which must have room for them.
  bool ReadRaw(void* out, size_t n);

  size_t remaining() const { return size_ - pos_; }

 private:
  const char* data_;
  size_t size_;
  size_t pos_ = 0;
};

void AppendU32(std::string* out, uint32_t v);
void AppendU64(std::string* out, uint64_t v);
void AppendI64(std::string* out, int64_t v);
void AppendF32(std::string* out, float v);

/// Matrix payload: rows i64, cols i64, then rows*cols raw f32.
void AppendMatrix(std::string* out, const DenseMatrix& m);
/// Restores into `m`, which must already have the serialized shape.
Status ReadMatrixInto(ByteReader* reader, DenseMatrix* m);

/// Encoder payload: matrix count u32 then each weight matrix.
void AppendEncoderWeights(std::string* out, const ContextEncoder& encoder);
Status ReadEncoderWeightsInto(ByteReader* reader, ContextEncoder* encoder);

/// MLP payload: layer count u32 then each layer's weight and bias.
void AppendMlpWeights(std::string* out, const Mlp& mlp);
Status ReadMlpWeightsInto(ByteReader* reader, Mlp* mlp);

/// Optimizer payload: slot count u32 then per slot step i64, m, v.
/// Parameter pointers are not serialized — the restored optimizer must
/// have been rebuilt with the same Register() sequence.
void AppendAdamState(std::string* out, const AdamOptimizer& optimizer);
Status ReadAdamStateInto(ByteReader* reader, AdamOptimizer* optimizer);

}  // namespace coane

#endif  // COANE_NN_SERIALIZE_H_

#ifndef COANE_NN_SERIALIZE_H_
#define COANE_NN_SERIALIZE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "la/dense_matrix.h"
#include "nn/adam.h"
#include "nn/context_conv.h"
#include "nn/mlp.h"

namespace coane {

/// Binary (little-endian, fixed-width) layouts of the training-state
/// sections of a checkpoint (src/core/checkpoint.h): one writer (Append*,
/// never fails) and one reader (Read*) per section. A reader checks every
/// declared shape against the bytes it has left before it allocates, and
/// returns kDataLoss on truncation or on a value no writer produces.

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
  /// Points `out` at the next `n` bytes of the buffer, without a copy.
  bool ReadView(size_t n, std::string_view* out);
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

/// One MLP layer's parameters.
struct LayerWeights {
  DenseMatrix weight;
  DenseMatrix bias;
};

/// One Adam slot: its step count and first/second moments.
struct AdamSlotState {
  int64_t step = 0;
  DenseMatrix m;
  DenseMatrix v;
};

/// Copies of an MLP's layers and of the Adam slots in Register() order
/// (an encoder's state is ContextEncoder::weight_matrices()).
std::vector<LayerWeights> CaptureMlpWeights(const Mlp& mlp);
std::vector<AdamSlotState> CaptureAdamState(const AdamOptimizer& optimizer);

/// In every section a matrix is rows i64, cols i64, then rows*cols f32.
/// Encoder section: matrix count u32, then each weight matrix.
void AppendEncoderWeights(std::string* out,
                          const std::vector<DenseMatrix>& weights);
Status ReadEncoderWeights(ByteReader* reader,
                          std::vector<DenseMatrix>* weights);

/// Decoder section: layer count u32, then each layer's weight and bias.
void AppendMlpWeights(std::string* out,
                      const std::vector<LayerWeights>& layers);
Status ReadMlpWeights(ByteReader* reader, std::vector<LayerWeights>* layers);

/// Optimizer section: slot count u32, then per slot step i64 (never
/// negative), m, v.
void AppendAdamState(std::string* out,
                     const std::vector<AdamSlotState>& slots);
Status ReadAdamState(ByteReader* reader, std::vector<AdamSlotState>* slots);

/// The same sections written from the live objects through the writers
/// above (coane_perfbench times these as its epoch snapshot).
void AppendEncoderWeights(std::string* out, const ContextEncoder& encoder);
void AppendMlpWeights(std::string* out, const Mlp& mlp);
void AppendAdamState(std::string* out, const AdamOptimizer& optimizer);

}  // namespace coane

#endif  // COANE_NN_SERIALIZE_H_

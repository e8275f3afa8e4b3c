#include "la/dense_matrix.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "common/logging.h"
#include "common/parallel/global_pool.h"
#include "common/parallel/parallel_for.h"
#include "la/vector_ops.h"

namespace coane {

namespace {

// GEMM kernel geometry: a kTileRows x kPanelCols block of the product is
// accumulated in registers while k sweeps one packed panel of B.
constexpr int64_t kTileRows = 4;
constexpr int64_t kPanelCols = 16;

// Lanes (la/vector_ops.h) reinterpreted as bits, to mask skipped terms.
typedef int32_t LaneBits __attribute__((vector_size(16)));
constexpr int64_t kPanelVecs = kPanelCols / kLanes;

// Strided view of one GEMM operand: element (x, k) sits at
// data[x * x_stride + k * k_stride], where x is the output row (for A) or
// output column (for B). A plain or a transposed matrix is only a choice of
// strides, so MatMul, TransposedMatMul and MatMulTransposed share a kernel.
struct GemmOperand {
  const float* data;
  int64_t x_stride;
  int64_t k_stride;
};

int64_t CeilDiv(int64_t a, int64_t b) { return (a + b - 1) / b; }

// Copies columns [j0, j0 + kPanelCols) of B into `panel`, k-major and
// zero-padded past column n. Returns whether every packed value is finite.
bool PackPanel(const GemmOperand& b, int64_t n, int64_t depth, int64_t j0,
               Lanes* panel) {
  const int64_t width = std::min(kPanelCols, n - j0);
  bool finite = true;
  float row[kPanelCols] = {};
  for (int64_t k = 0; k < depth; ++k) {
    const float* src = b.data + j0 * b.x_stride + k * b.k_stride;
    for (int64_t j = 0; j < width; ++j) {
      row[j] = src[j * b.x_stride];
      finite &= std::isfinite(row[j]);
    }
    std::memcpy(panel + k * kPanelVecs, row, sizeof(row));
  }
  return finite;
}

// tile[r][*] = sum over ascending k of a_rows[r][k * a_k_stride] * panel[k],
// each lane starting at +0. A term whose a is zero must be skipped: with
// kSkipZeros it is masked to +0, which leaves the sum unchanged. When the
// panel is all finite, a zero a yields a +-0 term, which also leaves the sum
// unchanged (a sum that starts at +0 never becomes -0), so the mask is only
// needed where 0 * inf or 0 * nan would otherwise poison the sum.
template <bool kSkipZeros>
void MultiplyTile(const float* const* a_rows, int64_t a_k_stride,
                  const Lanes* panel, int64_t depth,
                  float tile[kTileRows][kPanelCols]) {
  Lanes acc[kTileRows][kPanelVecs] = {};
  for (int64_t k = 0; k < depth; ++k) {
    const Lanes* b = panel + k * kPanelVecs;
#pragma GCC unroll 4
    for (int64_t r = 0; r < kTileRows; ++r) {
      const float a = a_rows[r][k * a_k_stride];
      if constexpr (kSkipZeros) {
        const int32_t keep = a != 0.0f ? -1 : 0;
#pragma GCC unroll 4
        for (int64_t q = 0; q < kPanelVecs; ++q) {
          acc[r][q] += (Lanes)((LaneBits)(a * b[q]) & keep);
        }
      } else {
#pragma GCC unroll 4
        for (int64_t q = 0; q < kPanelVecs; ++q) acc[r][q] += a * b[q];
      }
    }
  }
#pragma GCC unroll 4
  for (int64_t r = 0; r < kTileRows; ++r) {
#pragma GCC unroll 4
    for (int64_t q = 0; q < kPanelVecs; ++q) {
      std::memcpy(&tile[r][q * kLanes], &acc[r][q], sizeof(Lanes));
    }
  }
}

// Returns the m x n product of A (m x depth) and B (depth x n). Each output
// element is one float that starts at +0 and adds a(i,k) * b(k,j) in
// ascending k, skipping terms with a(i,k) == 0, and is computed wholly
// inside one shard, so the bytes match the row-axpy loop at every thread
// count. Work items are (column panel, row chunk) pairs, panel-major, so a
// shard packs each panel once; row chunks split a narrow B across the pool.
DenseMatrix Gemm(int64_t m, int64_t n, int64_t depth, const GemmOperand& a,
                 const GemmOperand& b) {
  DenseMatrix out(m, n, 0.0f);
  if (m == 0 || n == 0 || depth == 0) return out;
  const int64_t panels = CeilDiv(n, kPanelCols);
  const int64_t row_tiles = CeilDiv(m, kTileRows);
  ThreadPool* pool = GlobalThreadPool();
  const int64_t row_chunks = std::min(
      row_tiles, CeilDiv(ElasticShards(pool, panels * row_tiles), panels));
  const int64_t items = panels * row_chunks;
  (void)ParallelFor(
      pool, nullptr, "la.matmul", items, ElasticShards(pool, items),
      [&](int64_t, int64_t begin, int64_t end) -> Status {
        // Reused across calls, so a product allocates nothing on the pool
        // threads, whose malloc arenas also serve training's large
        // per-shard gradient buffers.
        thread_local std::vector<Lanes> panel;
        panel.resize(static_cast<size_t>(depth * kPanelVecs));
        int64_t packed = -1;
        bool finite = true;
        float tile[kTileRows][kPanelCols] = {};
        for (int64_t item = begin; item < end; ++item) {
          const int64_t p = item / row_chunks;
          const int64_t chunk = item % row_chunks;
          const int64_t j0 = p * kPanelCols;
          const int64_t width = std::min(kPanelCols, n - j0);
          if (p != packed) {
            finite = PackPanel(b, n, depth, j0, panel.data());
            packed = p;
          }
          const int64_t t_end = (chunk + 1) * row_tiles / row_chunks;
          for (int64_t t = chunk * row_tiles / row_chunks; t < t_end; ++t) {
            const int64_t i0 = t * kTileRows;
            const int64_t height = std::min(kTileRows, m - i0);
            // Rows past m repeat the tile's last row; they are not stored.
            const float* a_rows[kTileRows];
            for (int64_t r = 0; r < kTileRows; ++r) {
              a_rows[r] = a.data + (i0 + std::min(r, height - 1)) * a.x_stride;
            }
            if (finite) {
              MultiplyTile<false>(a_rows, a.k_stride, panel.data(), depth,
                                  tile);
            } else {
              MultiplyTile<true>(a_rows, a.k_stride, panel.data(), depth,
                                 tile);
            }
            for (int64_t r = 0; r < height; ++r) {
              std::copy(tile[r], tile[r] + width, out.Row(i0 + r) + j0);
            }
          }
        }
        return Status::OK();
      });
  return out;
}

}  // namespace

DenseMatrix::DenseMatrix(int64_t rows, int64_t cols, float fill)
    : rows_(rows), cols_(cols),
      data_(static_cast<size_t>(rows * cols), fill) {
  COANE_CHECK_GE(rows, 0);
  COANE_CHECK_GE(cols, 0);
}

void DenseMatrix::Fill(float value) {
  for (float& x : data_) x = value;
}

void DenseMatrix::XavierInit(Rng* rng) { XavierInit(rng, rows_, cols_); }

void DenseMatrix::XavierInit(Rng* rng, int64_t fan_in, int64_t fan_out) {
  COANE_CHECK_GT(fan_in + fan_out, 0);
  const double bound =
      std::sqrt(6.0 / static_cast<double>(fan_in + fan_out));
  for (float& x : data_) {
    x = static_cast<float>(rng->Uniform(-bound, bound));
  }
}

void DenseMatrix::GaussianInit(Rng* rng, float mean, float stddev) {
  for (float& x : data_) {
    x = static_cast<float>(rng->Normal(mean, stddev));
  }
}

void DenseMatrix::Axpy(float alpha, const DenseMatrix& other) {
  COANE_CHECK(SameShape(other));
  coane::Axpy(alpha, other.data(), data(), size());
}

void DenseMatrix::Scale(float alpha) { coane::Scale(alpha, data(), size()); }

DenseMatrix DenseMatrix::MatMul(const DenseMatrix& other) const {
  COANE_CHECK_EQ(cols_, other.rows_);
  return Gemm(rows_, other.cols_, cols_, {data(), cols_, 1},
              {other.data(), 1, other.cols_});
}

DenseMatrix DenseMatrix::TransposedMatMul(const DenseMatrix& other) const {
  COANE_CHECK_EQ(rows_, other.rows_);
  return Gemm(cols_, other.cols_, rows_, {data(), 1, cols_},
              {other.data(), 1, other.cols_});
}

DenseMatrix DenseMatrix::MatMulTransposed(const DenseMatrix& other) const {
  COANE_CHECK_EQ(cols_, other.cols_);
  return Gemm(rows_, other.rows_, cols_, {data(), cols_, 1},
              {other.data(), other.cols_, 1});
}

DenseMatrix DenseMatrix::SelectRows(const std::vector<int64_t>& rows) const {
  DenseMatrix out(static_cast<int64_t>(rows.size()), cols_);
  for (size_t i = 0; i < rows.size(); ++i) {
    COANE_CHECK_GE(rows[i], 0);
    COANE_CHECK_LT(rows[i], rows_);
    const float* src = Row(rows[i]);
    float* dst = out.Row(static_cast<int64_t>(i));
    for (int64_t j = 0; j < cols_; ++j) dst[j] = src[j];
  }
  return out;
}

}  // namespace coane

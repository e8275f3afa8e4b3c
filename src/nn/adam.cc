#include "nn/adam.h"

#include <cmath>

#include "common/logging.h"
#include "common/parallel/global_pool.h"
#include "common/parallel/parallel_for.h"

namespace coane {
namespace {

// Elements per Adam shard, at least: below this, dispatch costs more than
// the update.
constexpr int64_t kAdamGrain = 16384;

}  // namespace

size_t AdamOptimizer::Check(int id) const {
  COANE_CHECK_GE(id, 0);
  COANE_CHECK_LT(id, static_cast<int>(slots_.size()));
  return static_cast<size_t>(id);
}

int AdamOptimizer::Register(DenseMatrix* param) {
  COANE_CHECK(param != nullptr);
  Slot slot;
  slot.param = param;
  slot.m = DenseMatrix(param->rows(), param->cols(), 0.0f);
  slot.v = DenseMatrix(param->rows(), param->cols(), 0.0f);
  slots_.push_back(std::move(slot));
  return static_cast<int>(slots_.size()) - 1;
}

void AdamOptimizer::Step(int id, const DenseMatrix& grad) {
  COANE_CHECK_GE(id, 0);
  COANE_CHECK_LT(id, static_cast<int>(slots_.size()));
  Slot& slot = slots_[static_cast<size_t>(id)];
  COANE_CHECK(grad.SameShape(*slot.param));
  slot.t += 1;
  const float b1 = config_.beta1;
  const float b2 = config_.beta2;
  const float correction1 =
      1.0f - std::pow(b1, static_cast<float>(slot.t));
  const float correction2 =
      1.0f - std::pow(b2, static_cast<float>(slot.t));
  float* w = slot.param->data();
  float* m = slot.m.data();
  float* v = slot.v.data();
  const float* g = grad.data();
  const int64_t n = grad.size();
  // Every element updates independently, so any sharding yields the same
  // bytes; the grain keeps small tensors (biases) on the calling thread.
  ThreadPool* pool = GlobalThreadPool();
  (void)ParallelFor(
      pool, nullptr, "nn.adam", n,
      ElasticShards(pool, (n + kAdamGrain - 1) / kAdamGrain),
      [&](int64_t, int64_t begin, int64_t end) -> Status {
        for (int64_t i = begin; i < end; ++i) {
          m[i] = b1 * m[i] + (1.0f - b1) * g[i];
          v[i] = b2 * v[i] + (1.0f - b2) * g[i] * g[i];
          const float m_hat = m[i] / correction1;
          const float v_hat = v[i] / correction2;
          w[i] -= config_.learning_rate * m_hat /
                  (std::sqrt(v_hat) + config_.epsilon);
        }
        return Status::OK();
      });
}

}  // namespace coane

#include "serve/knn_index.h"

#include <algorithm>

namespace coane {
namespace serve {

Result<Metric> ParseMetric(const std::string& name) {
  if (name == "dot") return Metric::kDot;
  if (name == "cosine") return Metric::kCosine;
  return Status::InvalidArgument("unknown metric '" + name +
                                 "' (expected dot or cosine)");
}

const char* MetricName(Metric metric) {
  return metric == Metric::kDot ? "dot" : "cosine";
}

TopKAccumulator::TopKAccumulator(int64_t k) : k_(std::max<int64_t>(k, 0)) {
  // The reservation is only a hint: cap it so a pathological k cannot
  // turn the hint into a bad_alloc before a single Offer. The heap still
  // grows to k_ if that many candidates actually arrive.
  heap_.reserve(static_cast<size_t>(std::min<int64_t>(k_, 1 << 16)));
}

void TopKAccumulator::Offer(int64_t id, float score) {
  if (k_ == 0) return;
  const Neighbor candidate{id, score};
  if (static_cast<int64_t>(heap_.size()) < k_) {
    heap_.push_back(candidate);
    std::push_heap(heap_.begin(), heap_.end(), BetterNeighbor);
    return;
  }
  // heap_.front() is the worst retained neighbor (max-heap under the
  // "better" comparator puts the order-wise last element on top).
  if (BetterNeighbor(candidate, heap_.front())) {
    std::pop_heap(heap_.begin(), heap_.end(), BetterNeighbor);
    heap_.back() = candidate;
    std::push_heap(heap_.begin(), heap_.end(), BetterNeighbor);
  }
}

std::vector<Neighbor> TopKAccumulator::SortedTake() {
  std::sort(heap_.begin(), heap_.end(), BetterNeighbor);
  return std::move(heap_);
}

void SelectTopK(std::vector<Neighbor>* candidates, int64_t k) {
  std::sort(candidates->begin(), candidates->end(), BetterNeighbor);
  if (static_cast<int64_t>(candidates->size()) > k) {
    candidates->resize(static_cast<size_t>(std::max<int64_t>(k, 0)));
  }
}

float DotScore(const float* q, const float* v, int64_t dim) {
  // Two partial sums help the compiler pipeline the loads; summation
  // order is fixed, so scores are identical on every code path. The exact
  // index's hot loop, BlockDot in brute_force_index.cc, repeats this order
  // lane by lane: change both or neither.
  float even = 0.0f, odd = 0.0f;
  int64_t j = 0;
  for (; j + 1 < dim; j += 2) {
    even += q[j] * v[j];
    odd += q[j + 1] * v[j + 1];
  }
  if (j < dim) even += q[j] * v[j];
  return even + odd;
}

float MetricScore(Metric metric, const float* q, float q_norm,
                  const float* v, float v_norm, int64_t dim) {
  const float dot = DotScore(q, v, dim);
  if (metric == Metric::kDot) return dot;
  return CosineFromDot(dot, q_norm, v_norm);
}

}  // namespace serve
}  // namespace coane

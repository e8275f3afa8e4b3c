#include "common/admission.h"

#include <algorithm>

namespace coane {

AdmissionController::AdmissionController(const AdmissionOptions& options)
    : max_active_(std::max<int64_t>(1, options.max_active)),
      queue_capacity_(std::max<int64_t>(0, options.queue_capacity)) {}

AdmitDecision AdmissionController::Offer() {
  std::lock_guard<std::mutex> lock(mu_);
  ++offered_;
  // FIFO: a new arrival never overtakes a pending unit. Beyond
  // fairness, this is what keeps in_service_ <= max_active_: a slot
  // freed by Release() while units are pending belongs to the next
  // Promote(), so admitting here would let the promoted unit push the
  // ledger past the cap (Release -> Offer-admits -> Promote overshoot).
  if (in_service_ < max_active_ && pending_ == 0) {
    ++in_service_;
    ++admitted_;
    peak_in_service_ = std::max(peak_in_service_, in_service_);
    return AdmitDecision::kAdmit;
  }
  if (pending_ < queue_capacity_) {
    ++pending_;
    ++queued_;
    return AdmitDecision::kQueue;
  }
  ++shed_;
  return AdmitDecision::kShed;
}

void AdmissionController::Promote() {
  std::lock_guard<std::mutex> lock(mu_);
  if (pending_ > 0) --pending_;
  ++in_service_;
  peak_in_service_ = std::max(peak_in_service_, in_service_);
}

void AdmissionController::Withdraw() {
  std::lock_guard<std::mutex> lock(mu_);
  if (pending_ > 0) --pending_;
  ++withdrawn_;
}

void AdmissionController::Release() {
  std::lock_guard<std::mutex> lock(mu_);
  if (in_service_ > 0) --in_service_;
}

int64_t AdmissionController::in_service() const {
  std::lock_guard<std::mutex> lock(mu_);
  return in_service_;
}
int64_t AdmissionController::pending() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pending_;
}
int64_t AdmissionController::offered() const {
  std::lock_guard<std::mutex> lock(mu_);
  return offered_;
}
int64_t AdmissionController::admitted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return admitted_;
}
int64_t AdmissionController::queued() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queued_;
}
int64_t AdmissionController::shed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return shed_;
}
int64_t AdmissionController::withdrawn() const {
  std::lock_guard<std::mutex> lock(mu_);
  return withdrawn_;
}
int64_t AdmissionController::peak_in_service() const {
  std::lock_guard<std::mutex> lock(mu_);
  return peak_in_service_;
}

}  // namespace coane

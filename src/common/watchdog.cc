#include "common/watchdog.h"

#include <algorithm>
#include <chrono>

namespace coane {

Watchdog::Watchdog(double stall_seconds)
    : stall_seconds_(stall_seconds), thread_([this] { Run(); }) {}

Watchdog::~Watchdog() { Stop(); }

void Watchdog::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_requested_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void Watchdog::Run() {
  using Clock = std::chrono::steady_clock;
  const double poll_seconds = std::clamp(stall_seconds_ / 8.0, 0.001, 0.1);
  uint64_t last_beats = beats_.load(std::memory_order_relaxed);
  Clock::time_point last_advance = Clock::now();
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_requested_) {
    cv_.wait_for(lock, std::chrono::duration<double>(poll_seconds),
                 [this] { return stop_requested_; });
    if (stop_requested_) return;
    const uint64_t beats = beats_.load(std::memory_order_relaxed);
    const Clock::time_point now = Clock::now();
    if (beats != last_beats) {
      last_beats = beats;
      last_advance = now;
      continue;
    }
    if (std::chrono::duration<double>(now - last_advance).count() >=
        stall_seconds_) {
      stalled_.store(true, std::memory_order_relaxed);
      return;  // latched; nothing further to monitor
    }
  }
}

}  // namespace coane

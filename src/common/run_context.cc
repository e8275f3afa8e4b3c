#include "common/run_context.h"

#include <csignal>
#include <string>

#include "common/watchdog.h"

namespace coane {
namespace {

std::atomic<bool> g_cancel_requested{false};

void HandleStopSignal(int) {
  g_cancel_requested.store(true, std::memory_order_relaxed);
}

}  // namespace

RunContext RunContext::WithGlobalCancel() {
  RunContext ctx;
  ctx.SetCancelFlag(GlobalCancelToken());
  return ctx;
}

Status RunContext::Check(const char* stage) const {
  if (watchdog_ != nullptr) watchdog_->Beat();
  if (Cancelled()) {
    return Status::Cancelled(std::string("stopped at ") + stage);
  }
  if (watchdog_ != nullptr && watchdog_->stalled()) {
    return Status::DeadlineExceeded(
        std::string("watchdog declared a stall at ") + stage);
  }
  if (has_deadline_ && Clock::now() >= deadline_) {
    return Status::DeadlineExceeded(std::string("deadline expired at ") +
                                    stage);
  }
  return Status::OK();
}

void InstallSignalCancellation() {
  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);
}

const std::atomic<bool>* GlobalCancelToken() { return &g_cancel_requested; }

void SetGlobalCancel(bool value) {
  g_cancel_requested.store(value, std::memory_order_relaxed);
}

bool GlobalCancelRequested() {
  return g_cancel_requested.load(std::memory_order_relaxed);
}

}  // namespace coane

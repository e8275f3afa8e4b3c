#ifndef COANE_COMMON_WATCHDOG_H_
#define COANE_COMMON_WATCHDOG_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>

namespace coane {

/// Monitor thread that converts a stalled stage into a cooperative stop.
/// Every long stage already calls RunContext::Check once per unit of work
/// (one walk, one batch, one t-SNE iteration); a context carrying the
/// watchdog (RunContext::SetWatchdog) beats it on each of those checks, so
/// "the stage is advancing" and "the stage honours its limits" are the
/// same instrumentation point. When no beat arrives for `stall_seconds`,
/// the watchdog latches a stall, and the next Check reports
/// kDeadlineExceeded: a hung stage unwinds through the exact same
/// rollback/checkpoint path as an expired deadline — a hang becomes a
/// recoverable failure instead of a process a human must kill.
///
///   Watchdog dog(/*stall_seconds=*/30.0);
///   ctx.SetWatchdog(&dog);
///
/// The stall latches: once declared, it persists until the Watchdog is
/// destroyed, so every in-flight loop sees the stop. Destruction stops and
/// joins the thread.
class Watchdog {
 public:
  /// Starts monitoring immediately, polling every stall_seconds / 8
  /// (clamped to [1 ms, 100 ms]).
  explicit Watchdog(double stall_seconds);
  ~Watchdog();

  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  /// One unit of progress; one relaxed atomic increment.
  void Beat() const { beats_.fetch_add(1, std::memory_order_relaxed); }
  /// The latched stall indicator.
  bool stalled() const { return stalled_.load(std::memory_order_relaxed); }

  /// Stops the monitor thread (idempotent; also called by the
  /// destructor). An already-latched stall stays latched.
  void Stop();

 private:
  void Run();

  const double stall_seconds_;
  mutable std::atomic<uint64_t> beats_{0};
  std::atomic<bool> stalled_{false};
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_requested_ = false;
  std::thread thread_;
};

}  // namespace coane

#endif  // COANE_COMMON_WATCHDOG_H_

#ifndef COANE_COMMON_RUN_CONTEXT_H_
#define COANE_COMMON_RUN_CONTEXT_H_

#include <atomic>
#include <chrono>

#include "common/status.h"

namespace coane {

class Watchdog;

/// Cooperative cancellation, deadline and hang-watchdog propagation.
///
/// Long-running stages (random walks, context scanning, training epochs,
/// t-SNE / k-means / logistic-regression loops) accept a `const RunContext*`
/// and call Check("<subsystem>.<step>") once per unit of work — one walk,
/// one batch, one iteration. A non-OK result means "stop now": the stage
/// unwinds at that boundary, returns the status unchanged, and preserves
/// partial results where the API allows (documented per function). Passing
/// nullptr (the default everywhere) disables every limit, so existing call
/// sites keep their unbounded behaviour.
///
///   RunContext ctx = RunContext::WithGlobalCancel();   // SIGINT/SIGTERM
///   ctx.SetDeadlineAfter(30.0);                        // 30 s from now
///   auto walks = GenerateRandomWalks(graph, cfg, &rng, &ctx);
///   if (!walks.ok()) ...  // kCancelled or kDeadlineExceeded
///
/// A RunContext is a trivially copyable value of three settings; copies
/// share the cancel flag and the watchdog.
///
/// Thread-safety: Check() may be called concurrently from the shards of a
/// ParallelFor loop (the cancel flag is an atomic the caller owns, the
/// watchdog's beat counter is atomic). The setters are not synchronized —
/// configure a context before handing it to a parallel stage.
class RunContext {
 public:
  /// Context observing the process-wide SIGINT/SIGTERM token (see
  /// InstallSignalCancellation below).
  static RunContext WithGlobalCancel();

  /// Sets the deadline `seconds` from now (a negative value is already
  /// past).
  RunContext& SetDeadlineAfter(double seconds) {
    has_deadline_ = true;
    deadline_ = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(seconds));
    return *this;
  }
  /// `flag` must outlive the context; nullptr clears it.
  RunContext& SetCancelFlag(const std::atomic<bool>* flag) {
    cancel_flag_ = flag;
    return *this;
  }
  /// Hang watchdog (see common/watchdog.h): every Check() beats it, and
  /// once it has latched a stall Check() reports kDeadlineExceeded — a
  /// stalled stage unwinds through the deadline path. `watchdog` must
  /// outlive the context; nullptr clears it.
  RunContext& SetWatchdog(const Watchdog* watchdog) {
    watchdog_ = watchdog;
    return *this;
  }

  bool Cancelled() const {
    return cancel_flag_ != nullptr &&
           cancel_flag_->load(std::memory_order_relaxed);
  }

  /// The single cooperative gate. Beats the attached watchdog (when any)
  /// and returns, in precedence order, kCancelled, kDeadlineExceeded
  /// (watchdog stall, then wall-clock deadline), or OK; the message names
  /// `stage` ("walk.generate", "train.epoch", ...) so callers can tell
  /// which loop stopped and why.
  Status Check(const char* stage) const;

 private:
  using Clock = std::chrono::steady_clock;

  bool has_deadline_ = false;
  Clock::time_point deadline_{};
  const std::atomic<bool>* cancel_flag_ = nullptr;
  const Watchdog* watchdog_ = nullptr;
};

/// Checks `ctx` (which may be null) at a unit-of-work boundary and
/// propagates the stop status to the caller.
#define COANE_RETURN_IF_STOPPED(ctx, stage)             \
  do {                                                  \
    if ((ctx) != nullptr) {                             \
      ::coane::Status _rc_st = (ctx)->Check(stage);     \
      if (!_rc_st.ok()) return _rc_st;                  \
    }                                                   \
  } while (0)

/// Installs SIGINT and SIGTERM handlers that set the process-wide cancel
/// token. Idempotent. Any RunContext created via WithGlobalCancel (or
/// given GlobalCancelToken() explicitly) then reports kCancelled at the
/// next unit-of-work boundary after a signal arrives.
void InstallSignalCancellation();

/// The process-wide cancel token driven by InstallSignalCancellation.
/// Never null; lock-free, safe to read from signal handlers and loops.
const std::atomic<bool>* GlobalCancelToken();

/// Programmatic access to the global token (tests; a CLI resetting between
/// subcommands).
void SetGlobalCancel(bool value);
bool GlobalCancelRequested();

}  // namespace coane

#endif  // COANE_COMMON_RUN_CONTEXT_H_

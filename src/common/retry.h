#ifndef COANE_COMMON_RETRY_H_
#define COANE_COMMON_RETRY_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>

#include "common/run_context.h"
#include "common/status.h"

namespace coane {

/// Bounded exponential-backoff retry for transiently failing operations
/// (checkpoint writes, graph loads, artifact/manifest writes).
///
///   RetryPolicy policy;                       // 3 attempts, ~10 ms, ~20 ms apart
///   Status st = RetryOp(policy, ctx, "checkpoint.write", [&] {
///     return WriteCheckpointFile(path, ckpt);
///   });
///
/// Only *retryable* statuses (see IsRetryable) are re-attempted; permanent
/// errors — bad arguments, corrupt data — return immediately. When the
/// policy is exhausted the operation's own last Status is surfaced with
/// the attempt count appended to its message, never a synthetic error
/// code. Backoff delays are deterministic: the jitter for attempt k is a
/// pure function of (jitter_seed, k), so two runs with the same policy
/// retry on exactly the same schedule (asserted by retry_test).
struct RetryPolicy {
  /// Total tries including the first one; values < 1 behave as 1.
  int max_attempts = 3;
  /// Delay after the first failed attempt; doubles per further failure,
  /// capped at max_backoff_sec.
  double initial_backoff_sec = 0.01;
  double max_backoff_sec = 1.0;
  /// Seed of the deterministic jitter stream (SplitMix64 over the attempt
  /// index). Each delay is scaled by a factor drawn from [0.9, 1.1); the
  /// cap still holds after jitter.
  uint64_t jitter_seed = 0;
};

/// The retry taxonomy. Transient environment failures are worth another
/// try; everything that would deterministically fail again — or that
/// encodes a cooperative stop the caller asked for — is permanent.
///
///   retryable: kIoError, kResourceExhausted, kUnavailable
///   permanent: kInvalidArgument, kDataLoss, kNotFound, kOutOfRange,
///              kFailedPrecondition, kInternal, kCancelled,
///              kDeadlineExceeded (and kOk, trivially)
bool IsRetryable(StatusCode code);
bool IsRetryable(const Status& status);

/// The delay slept after the `attempt`-th failed attempt (1-based):
/// min(max_backoff_sec, initial * 2^(attempt-1) * jitter(attempt)).
/// Pure function of (policy, attempt) — exposed so tests and the
/// supervisor can reuse the exact schedule.
double BackoffDelaySeconds(const RetryPolicy& policy, int attempt);

/// Runs `fn` under `policy`. `ctx` (optional) is consulted between
/// attempts and during backoff sleeps: a cancel or expired deadline
/// abandons the remaining retries and surfaces the last failure,
/// annotated with the reason. `op` names the operation in annotations.
Status RetryOp(const RetryPolicy& policy, const RunContext* ctx,
               const std::string& op, const std::function<Status()>& fn);

/// Result<T> flavour of RetryOp: retries on a retryable error status and
/// returns the first OK result (or the annotated final error).
template <typename T, typename Fn>
Result<T> RetryResultOp(const RetryPolicy& policy, const RunContext* ctx,
                        const std::string& op, Fn&& fn) {
  std::optional<Result<T>> last;
  Status st = RetryOp(policy, ctx, op, [&] {
    last.emplace(fn());
    return last->status();
  });
  if (!st.ok()) return st;
  return std::move(*last);
}

}  // namespace coane

#endif  // COANE_COMMON_RETRY_H_

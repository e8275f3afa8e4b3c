#include "common/retry.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>

#include "common/parallel/rng_split.h"

namespace coane {
namespace {

// The schedule every policy shares: delays double per failed attempt, and
// each is scaled by a deterministic factor in [1 - kJitter, 1 + kJitter).
constexpr double kBackoffMultiplier = 2.0;
constexpr double kJitter = 0.1;

// Sleeps ~`seconds` in short slices so a cancel or deadline on `ctx` is
// honoured within ~10 ms instead of after the whole backoff.
Status SleepObservingContext(double seconds, const RunContext* ctx) {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point until =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  while (Clock::now() < until) {
    if (ctx != nullptr) {
      COANE_RETURN_IF_ERROR(ctx->Check("retry.backoff"));
    }
    const double remaining =
        std::chrono::duration<double>(until - Clock::now()).count();
    std::this_thread::sleep_for(std::chrono::duration<double>(
        std::min(remaining, 0.01)));
  }
  if (ctx != nullptr) {
    COANE_RETURN_IF_ERROR(ctx->Check("retry.backoff"));
  }
  return Status::OK();
}

Status Annotate(const Status& last, const std::string& op, int attempts,
                const Status* abandoned_by) {
  std::string message = last.message() + " (op '" + op + "' failed after " +
                        std::to_string(attempts) +
                        (attempts == 1 ? " attempt" : " attempts");
  if (abandoned_by != nullptr) {
    message += "; retry abandoned: " + abandoned_by->ToString();
  }
  message += ")";
  return Status(last.code(), std::move(message));
}

}  // namespace

bool IsRetryable(StatusCode code) {
  return code == StatusCode::kIoError ||
         code == StatusCode::kResourceExhausted ||
         code == StatusCode::kUnavailable;
}

bool IsRetryable(const Status& status) { return IsRetryable(status.code()); }

double BackoffDelaySeconds(const RetryPolicy& policy, int attempt) {
  if (attempt < 1) attempt = 1;
  double delay = policy.initial_backoff_sec *
                 std::pow(kBackoffMultiplier, attempt - 1);
  // SplitMix64 of (seed, attempt): the same uniform in [0,1) every run.
  const uint64_t bits =
      SplitSeed(policy.jitter_seed, static_cast<uint64_t>(attempt));
  const double uniform = static_cast<double>(bits >> 11) * 0x1.0p-53;
  delay *= 1.0 + kJitter * (2.0 * uniform - 1.0);
  return std::clamp(delay, 0.0, policy.max_backoff_sec);
}

Status RetryOp(const RetryPolicy& policy, const RunContext* ctx,
               const std::string& op, const std::function<Status()>& fn) {
  const int max_attempts = std::max(1, policy.max_attempts);
  for (int attempt = 1;; ++attempt) {
    const Status st = fn();
    if (st.ok()) return st;
    if (!IsRetryable(st)) {
      return attempt == 1 ? st : Annotate(st, op, attempt, nullptr);
    }
    if (attempt >= max_attempts) {
      return Annotate(st, op, attempt, nullptr);
    }
    const Status slept =
        SleepObservingContext(BackoffDelaySeconds(policy, attempt), ctx);
    if (!slept.ok()) {
      return Annotate(st, op, attempt, &slept);
    }
  }
}

}  // namespace coane

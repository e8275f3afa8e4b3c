// Retry/backoff framework tests: the retryable-status taxonomy, attempt
// accounting, transient faults absorbed vs permanent faults surfaced, and
// the determinism/boundedness property of the backoff schedule.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common/fault_injection.h"
#include "common/retry.h"
#include "common/run_context.h"
#include "common/status.h"
#include "common/flags.h"
#include "core/checkpoint.h"
#include "core/config_flags.h"

namespace coane {
namespace {

flags::FlagSet NoFlags() {
  std::string tool = "tool";
  char* argv[] = {tool.data()};
  return flags::FlagSet(1, argv);
}

// Zero-delay policy for tests that only care about attempt accounting.
RetryPolicy InstantPolicy(int max_attempts) {
  RetryPolicy p;
  p.max_attempts = max_attempts;
  p.initial_backoff_sec = 0.0;
  p.max_backoff_sec = 0.0;
  return p;
}

TEST(RetryTest, RetryableTaxonomy) {
  EXPECT_TRUE(IsRetryable(StatusCode::kIoError));
  EXPECT_TRUE(IsRetryable(StatusCode::kResourceExhausted));

  EXPECT_FALSE(IsRetryable(StatusCode::kOk));
  EXPECT_FALSE(IsRetryable(StatusCode::kInvalidArgument));
  EXPECT_FALSE(IsRetryable(StatusCode::kDataLoss));
  EXPECT_FALSE(IsRetryable(StatusCode::kNotFound));
  EXPECT_FALSE(IsRetryable(StatusCode::kOutOfRange));
  EXPECT_FALSE(IsRetryable(StatusCode::kFailedPrecondition));
  EXPECT_FALSE(IsRetryable(StatusCode::kInternal));
  EXPECT_FALSE(IsRetryable(StatusCode::kCancelled));
  EXPECT_FALSE(IsRetryable(StatusCode::kDeadlineExceeded));

  EXPECT_TRUE(IsRetryable(Status::IoError("disk hiccup")));
  EXPECT_FALSE(IsRetryable(Status::DataLoss("corrupt")));
}

TEST(RetryTest, FirstAttemptSuccessRunsOnce) {
  int calls = 0;
  Status st = RetryOp(InstantPolicy(5), nullptr, "op",
                      [&] {
                        ++calls;
                        return Status::OK();
                      });
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(calls, 1);
}

TEST(RetryTest, TransientFailureRetriedUntilSuccess) {
  int calls = 0;
  Status st = RetryOp(InstantPolicy(5), nullptr, "op",
                      [&] {
                        ++calls;
                        if (calls < 3) return Status::IoError("flaky");
                        return Status::OK();
                      });
  EXPECT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(calls, 3);
}

TEST(RetryTest, ExhaustionSurfacesOriginalStatusWithAttemptCount) {
  int calls = 0;
  Status st = RetryOp(InstantPolicy(3), nullptr, "checkpoint.write",
                      [&] {
                        ++calls;
                        return Status::IoError("disk on fire");
                      });
  EXPECT_EQ(calls, 3);
  // The operation's own code, not a synthetic one...
  EXPECT_EQ(st.code(), StatusCode::kIoError);
  // ...with the original message and the attempt count attached.
  EXPECT_NE(st.ToString().find("disk on fire"), std::string::npos)
      << st.ToString();
  EXPECT_NE(st.ToString().find("after 3 attempts"), std::string::npos)
      << st.ToString();
  EXPECT_NE(st.ToString().find("checkpoint.write"), std::string::npos)
      << st.ToString();
}

TEST(RetryTest, PermanentErrorNotRetriedAndNotAnnotated) {
  int calls = 0;
  Status st = RetryOp(InstantPolicy(5), nullptr, "op",
                      [&] {
                        ++calls;
                        return Status::DataLoss("corrupt checkpoint");
                      });
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(st.code(), StatusCode::kDataLoss);
  // A first-attempt permanent failure is returned verbatim: no retry
  // happened, so no attempt-count annotation should suggest one did.
  EXPECT_EQ(st.ToString().find("attempts"), std::string::npos)
      << st.ToString();
}

TEST(RetryTest, PermanentErrorAfterTransientOnesStopsRetrying) {
  int calls = 0;
  Status st = RetryOp(InstantPolicy(10), nullptr, "op",
                      [&] {
                        ++calls;
                        if (calls == 1) return Status::IoError("flaky");
                        return Status::InvalidArgument("bad config");
                      });
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

TEST(RetryTest, MaxAttemptsBelowOneBehavesAsOne) {
  int calls = 0;
  Status st = RetryOp(InstantPolicy(0), nullptr, "op",
                      [&] {
                        ++calls;
                        return Status::IoError("flaky");
                      });
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(st.code(), StatusCode::kIoError);
}

TEST(RetryTest, CancelledContextAbandonsRemainingRetries) {
  std::atomic<bool> cancel{true};
  RunContext ctx;
  ctx.SetCancelFlag(&cancel);
  int calls = 0;
  Status st = RetryOp(InstantPolicy(5), &ctx, "op",
                      [&] {
                        ++calls;
                        return Status::IoError("flaky");
                      });
  // First attempt runs; the cancelled context then abandons the retries
  // and the last real failure is surfaced, annotated with the reason.
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(st.code(), StatusCode::kIoError);
  EXPECT_NE(st.ToString().find("retry abandoned"), std::string::npos)
      << st.ToString();
}

TEST(RetryTest, ExpiredDeadlineAbandonsRemainingRetries) {
  RunContext ctx;
  ctx.SetDeadlineAfter(-1.0);  // already expired
  int calls = 0;
  Status st = RetryOp(InstantPolicy(5), &ctx, "op",
                      [&] {
                        ++calls;
                        return Status::IoError("flaky");
                      });
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(st.code(), StatusCode::kIoError);
  EXPECT_NE(st.ToString().find("retry abandoned"), std::string::npos)
      << st.ToString();
}

TEST(RetryTest, ResultFlavourReturnsFirstOkValue) {
  int calls = 0;
  RetryPolicy p = InstantPolicy(4);
  Result<int> r = RetryResultOp<int>(p, nullptr, "op",
                                     [&]() -> Result<int> {
                                       ++calls;
                                       if (calls < 2) {
                                         return Status::IoError("flaky");
                                       }
                                       return 42;
                                     });
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(calls, 2);
}

TEST(RetryTest, ResultFlavourSurfacesAnnotatedError) {
  RetryPolicy p = InstantPolicy(2);
  Result<int> r = RetryResultOp<int>(
      p, nullptr, "graph_io.load",
      []() -> Result<int> { return Status::IoError("unreadable"); });
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
  EXPECT_NE(r.status().ToString().find("after 2 attempts"),
            std::string::npos)
      << r.status().ToString();
}

// --- fault-injection integration: the acceptance scenario --------------

TrainingCheckpoint TinyCheckpoint() {
  TrainingCheckpoint ckpt;
  ckpt.epochs_done = 4;
  ckpt.learning_rate = 0.001f;
  ckpt.config_fingerprint = 0x1234;
  ckpt.rng_state = "rng-bytes";
  ckpt.encoder.push_back(DenseMatrix(2, 3, 0.5f));
  ckpt.adam.push_back(
      {3, DenseMatrix(2, 3, 0.25f), DenseMatrix(2, 3, 0.125f)});
  return ckpt;
}

TEST(RetryFaultTest, TransientCheckpointWriteFaultAbsorbedByRetries) {
  fault::Reset();
  const std::string path = "/tmp/coane_retry_ckpt.bin";
  std::remove(path.c_str());
  // The write fails on its first two hits and recovers: a retry policy
  // with 3 attempts must absorb the fault completely.
  fault::ArmTransient("checkpoint.write", /*trigger_hit=*/1,
                      /*fail_count=*/2);
  const TrainingCheckpoint ckpt = TinyCheckpoint();
  Status st = RetryOp(InstantPolicy(3), nullptr, "checkpoint.write",
                      [&] {
                        return WriteCheckpointFile(path, ckpt);
                      });
  EXPECT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(fault::HitCount("checkpoint.write"), 3);
  auto readback = ReadCheckpointFile(path);
  ASSERT_TRUE(readback.ok()) << readback.status().ToString();
  EXPECT_EQ(readback.value().epochs_done, 4);
  fault::Reset();
  std::remove(path.c_str());
}

TEST(RetryFaultTest, PermanentCheckpointWriteFaultExhaustsPolicy) {
  fault::Reset();
  const std::string path = "/tmp/coane_retry_ckpt_perm.bin";
  std::remove(path.c_str());
  fault::ArmPermanent("checkpoint.write", /*trigger_hit=*/1);
  const TrainingCheckpoint ckpt = TinyCheckpoint();
  Status st = RetryOp(InstantPolicy(3), nullptr, "checkpoint.write",
                      [&] {
                        return WriteCheckpointFile(path, ckpt);
                      });
  EXPECT_EQ(st.code(), StatusCode::kIoError);
  EXPECT_NE(st.ToString().find("after 3 attempts"), std::string::npos)
      << st.ToString();
  EXPECT_EQ(fault::HitCount("checkpoint.write"), 3);
  fault::Reset();
  std::remove(path.c_str());
}

// --- backoff schedule properties ---------------------------------------

TEST(RetryPropertyTest, BackoffIsDeterministicBoundedAndGrows) {
  // Every policy doubles its delay per failure and jitters it by +-10%.
  constexpr double kMultiplier = 2.0;
  constexpr double kJitter = 0.1;
  RetryPolicy p;
  p.initial_backoff_sec = 0.01;
  p.max_backoff_sec = 1.0;

  for (uint64_t seed : {uint64_t{0}, uint64_t{7}, uint64_t{123456789}}) {
    p.jitter_seed = seed;
    std::vector<double> first, second;
    for (int attempt = 1; attempt <= 20; ++attempt) {
      first.push_back(BackoffDelaySeconds(p, attempt));
      second.push_back(BackoffDelaySeconds(p, attempt));
    }
    // Deterministic: the schedule is a pure function of (policy, attempt).
    EXPECT_EQ(first, second) << "seed " << seed;
    for (int attempt = 1; attempt <= 20; ++attempt) {
      const double delay = first[static_cast<size_t>(attempt - 1)];
      // Bounded: never negative, never above the cap.
      EXPECT_GE(delay, 0.0) << "seed " << seed << " attempt " << attempt;
      EXPECT_LE(delay, p.max_backoff_sec)
          << "seed " << seed << " attempt " << attempt;
      // Within the jitter envelope of the un-jittered exponential.
      const double base =
          std::min(p.max_backoff_sec,
                   p.initial_backoff_sec * std::pow(kMultiplier, attempt - 1));
      EXPECT_GE(delay, base * (1.0 - kJitter) - 1e-12)
          << "seed " << seed << " attempt " << attempt;
      EXPECT_LE(delay,
                std::min(p.max_backoff_sec,
                         base * (1.0 + kJitter)) +
                    1e-12)
          << "seed " << seed << " attempt " << attempt;
    }
  }
}

TEST(RetryPropertyTest, DifferentSeedsProduceDifferentJitter) {
  RetryPolicy a, b;
  a.jitter_seed = 1;
  b.jitter_seed = 2;
  bool any_difference = false;
  for (int attempt = 1; attempt <= 20; ++attempt) {
    if (BackoffDelaySeconds(a, attempt) != BackoffDelaySeconds(b, attempt)) {
      any_difference = true;
      break;
    }
  }
  EXPECT_TRUE(any_difference);
}

// The shipped schedules, pinned to the bit: coane_cli/distd's
// MakeRetryPolicy at its default --seed=42, and coane_supervisor's restart
// backoff at its defaults (--backoff-ms=200 --backoff-max-ms=5000
// --seed=42). Both later attempts sit at their cap.
TEST(RetryPropertyTest, ShippedSchedulesArePinned) {
  const RetryPolicy cli = MakeRetryPolicy(NoFlags());
  const double cli_delays[] = {
      0x1.316452bd5cc67p-7, 0x1.392b9f9338146p-6, 0x1.3d7808b3fb778p-5,
      0x1.29678329821ecp-4, 0x1.5fcfec06b76cdp-3, 0x1.3539b3ff0b935p-2,
      0x1p-1,               0x1p-1};
  RetryPolicy supervisor;
  supervisor.initial_backoff_sec = 200.0 / 1000.0;
  supervisor.max_backoff_sec = 5000.0 / 1000.0;
  supervisor.jitter_seed = 42;
  const double supervisor_delays[] = {
      0x1.7dbd676cb3f8p-3, 0x1.8776877806198p-2, 0x1.8cd60ae0fa557p-1,
      0x1.73c163f3e2a68p+0, 0x1.b7c3e7086548p+1, 0x1.4p+2,
      0x1.4p+2,             0x1.4p+2};
  for (int attempt = 1; attempt <= 8; ++attempt) {
    const size_t i = static_cast<size_t>(attempt - 1);
    EXPECT_EQ(BackoffDelaySeconds(cli, attempt), cli_delays[i])
        << "attempt " << attempt;
    EXPECT_EQ(BackoffDelaySeconds(supervisor, attempt), supervisor_delays[i])
        << "attempt " << attempt;
  }
}

}  // namespace
}  // namespace coane

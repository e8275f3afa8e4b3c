// Hang-watchdog tests: a beaten watchdog stays quiet, an unbeaten one
// latches a stall, and a RunContext carrying it beats it on every Check
// and turns the stall into kDeadlineExceeded.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "common/run_context.h"
#include "common/watchdog.h"

namespace coane {
namespace {

void SleepSec(double seconds) {
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
}

void WaitForStall(const Watchdog& dog) {
  for (int i = 0; i < 100 && !dog.stalled(); ++i) SleepSec(0.01);
}

TEST(WatchdogTest, BeatenWatchdogStaysAlive) {
  Watchdog dog(/*stall_seconds=*/0.2);
  for (int i = 0; i < 10; ++i) {
    dog.Beat();
    SleepSec(0.03);  // well inside the stall window
  }
  EXPECT_FALSE(dog.stalled());
  dog.Stop();
  EXPECT_FALSE(dog.stalled());
}

TEST(WatchdogTest, RunContextCheckBeatsTheWatchdog) {
  Watchdog dog(/*stall_seconds=*/0.2);
  RunContext ctx;
  ctx.SetWatchdog(&dog);
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(ctx.Check("test.unit").ok());
    SleepSec(0.03);
  }
  EXPECT_FALSE(dog.stalled()) << "each Check must count as progress";
}

TEST(WatchdogTest, UnbeatenWatchdogLatchesAStall) {
  Watchdog dog(/*stall_seconds=*/0.05);
  // Never beat: the watchdog must declare a stall.
  WaitForStall(dog);
  EXPECT_TRUE(dog.stalled());
  // Latched: beating after the fact does not clear it.
  dog.Beat();
  SleepSec(0.03);
  EXPECT_TRUE(dog.stalled());
}

TEST(WatchdogTest, StallSurfacesAsDeadlineExceededThroughRunContext) {
  Watchdog dog(/*stall_seconds=*/0.05);
  RunContext ctx;
  ctx.SetWatchdog(&dog);

  EXPECT_TRUE(ctx.Check("train.batch").ok());
  WaitForStall(dog);
  ASSERT_TRUE(dog.stalled());

  Status st = ctx.Check("train.batch");
  EXPECT_EQ(st.code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(st.ToString().find("watchdog"), std::string::npos)
      << st.ToString();
  EXPECT_NE(st.ToString().find("train.batch"), std::string::npos)
      << st.ToString();
}

TEST(WatchdogTest, StopIsIdempotentAndDestructionIsClean) {
  {
    Watchdog dog(/*stall_seconds=*/10.0);
    dog.Stop();
    dog.Stop();
  }  // destructor after explicit Stop must not hang or crash
  {
    Watchdog dog(/*stall_seconds=*/10.0);
  }  // destructor alone joins the monitor thread
}

TEST(WatchdogTest, CancelStillWinsOverStall) {
  // Precedence: a user cancel (SIGINT) reports kCancelled even while the
  // watchdog has also latched a stall — the operator's intent outranks it.
  Watchdog dog(/*stall_seconds=*/0.01);
  WaitForStall(dog);
  ASSERT_TRUE(dog.stalled());
  std::atomic<bool> cancel{true};
  RunContext ctx;
  ctx.SetWatchdog(&dog).SetCancelFlag(&cancel);
  Status st = ctx.Check("train.batch");
  EXPECT_EQ(st.code(), StatusCode::kCancelled);
}

}  // namespace
}  // namespace coane

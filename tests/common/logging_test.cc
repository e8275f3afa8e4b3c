#include "common/logging.h"

#include <gtest/gtest.h>

#include <string>

#include "common/stopwatch.h"

namespace coane {
namespace {

TEST(LoggingTest, CheckPassesOnTrue) {
  COANE_CHECK(true) << "never printed";
  COANE_CHECK_EQ(1, 1);
  COANE_CHECK_NE(1, 2);
  COANE_CHECK_LT(1, 2);
  COANE_CHECK_LE(2, 2);
  COANE_CHECK_GT(3, 2);
  COANE_CHECK_GE(3, 3);
}

TEST(LoggingDeathTest, CheckAbortsOnFalse) {
  EXPECT_DEATH(COANE_CHECK(false) << "boom", "Check failed: false");
  EXPECT_DEATH(COANE_CHECK_EQ(1, 2), "Check failed");
  EXPECT_DEATH(COANE_CHECK_LT(5, 2), "Check failed");
}

TEST(LoggingTest, LevelFiltering) {
  // Below-threshold logs are swallowed; the threshold is Info.
  ::testing::internal::CaptureStderr();
  COANE_LOG(Debug) << "hidden";
  EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");
  ::testing::internal::CaptureStderr();
  COANE_LOG(Info) << "shown";
  EXPECT_NE(::testing::internal::GetCapturedStderr().find("shown"),
            std::string::npos);
}

TEST(StopwatchTest, MeasuresElapsedTime) {
  Stopwatch watch;
  // Burn a small amount of CPU.
  double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink += i * 0.5;
  volatile double keep = sink;
  (void)keep;
  const double first = watch.ElapsedSeconds();
  EXPECT_GE(first, 0.0);
  EXPECT_LT(first, 5.0);
  EXPECT_NEAR(watch.ElapsedMillis(), watch.ElapsedSeconds() * 1e3,
              watch.ElapsedSeconds() * 1e3 * 0.5 + 1.0);
  watch.Restart();
  EXPECT_LE(watch.ElapsedSeconds(), first + 1.0);
}

}  // namespace
}  // namespace coane

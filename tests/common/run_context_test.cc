// Unit tests of the cooperative cancellation / deadline gate that every
// long-running stage polls via COANE_RETURN_IF_STOPPED.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <type_traits>

#include "common/run_context.h"

namespace coane {
namespace {

// A context is three plain settings; copies share the cancel flag and the
// watchdog they point at.
static_assert(std::is_trivially_copyable_v<RunContext>);

// Stand-in for a library stage: one gate, then success.
Status GatedStage(const RunContext* ctx) {
  COANE_RETURN_IF_STOPPED(ctx, "test.stage");
  return Status::OK();
}

TEST(RunContextTest, DefaultContextAlwaysOk) {
  const RunContext ctx;
  EXPECT_TRUE(ctx.Check("test.stage").ok());
  EXPECT_FALSE(ctx.Cancelled());
}

TEST(RunContextTest, NullContextIsUnbounded) {
  EXPECT_TRUE(GatedStage(nullptr).ok());
}

TEST(RunContextTest, ExpiredDeadlineNamesTheStage) {
  const RunContext ctx = RunContext().SetDeadlineAfter(-1.0);  // past
  const Status st = ctx.Check("walk.generate");
  EXPECT_EQ(st.code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(st.message().find("walk.generate"), std::string::npos)
      << st.ToString();
}

TEST(RunContextTest, FutureDeadlinePasses) {
  const RunContext ctx = RunContext().SetDeadlineAfter(3600.0);
  EXPECT_TRUE(ctx.Check("test.stage").ok());
}

TEST(RunContextTest, CancelFlagStopsAtNextGate) {
  std::atomic<bool> cancel{false};
  RunContext ctx;
  ctx.SetCancelFlag(&cancel);
  EXPECT_TRUE(ctx.Check("test.stage").ok());
  cancel.store(true);
  EXPECT_TRUE(ctx.Cancelled());
  EXPECT_EQ(ctx.Check("train.batch").code(), StatusCode::kCancelled);
  EXPECT_EQ(GatedStage(&ctx).code(), StatusCode::kCancelled);
  cancel.store(false);
  EXPECT_TRUE(ctx.Check("train.batch").ok());
}

TEST(RunContextTest, CancelTakesPrecedenceOverDeadline) {
  std::atomic<bool> cancel{true};
  RunContext ctx;
  ctx.SetDeadlineAfter(-1.0).SetCancelFlag(&cancel);
  EXPECT_EQ(ctx.Check("test.stage").code(), StatusCode::kCancelled);
  cancel.store(false);
  EXPECT_EQ(ctx.Check("test.stage").code(), StatusCode::kDeadlineExceeded);
}

TEST(RunContextTest, CopiesShareCancelFlagButOwnDeadline) {
  std::atomic<bool> cancel{false};
  RunContext parent;
  parent.SetCancelFlag(&cancel).SetDeadlineAfter(3600.0);
  RunContext child = parent;
  child.SetDeadlineAfter(-1.0);
  EXPECT_EQ(child.Check("test.stage").code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(parent.Check("test.stage").ok());
  cancel.store(true);
  EXPECT_EQ(parent.Check("test.stage").code(), StatusCode::kCancelled);
  EXPECT_EQ(child.Check("test.stage").code(), StatusCode::kCancelled);
}

TEST(RunContextTest, GlobalCancelTokenDrivesWithGlobalCancel) {
  SetGlobalCancel(false);
  const RunContext ctx = RunContext::WithGlobalCancel();
  EXPECT_TRUE(ctx.Check("test.stage").ok());
  SetGlobalCancel(true);
  EXPECT_TRUE(GlobalCancelRequested());
  EXPECT_EQ(ctx.Check("test.stage").code(), StatusCode::kCancelled);
  SetGlobalCancel(false);
  EXPECT_FALSE(GlobalCancelRequested());
  EXPECT_TRUE(ctx.Check("test.stage").ok());
}

TEST(RunContextTest, InstallSignalCancellationIsIdempotent) {
  InstallSignalCancellation();
  InstallSignalCancellation();
  EXPECT_NE(GlobalCancelToken(), nullptr);
  EXPECT_FALSE(GlobalCancelRequested());
}

}  // namespace
}  // namespace coane

// Concurrency tier: ThreadPool lifecycle and the ParallelFor stop/failure
// semantics that the deterministic hot paths are built on. Everything here
// must also run clean under ThreadSanitizer (COANE_SANITIZE=thread).

#include "common/parallel/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <mutex>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/fault_injection.h"
#include "common/parallel/global_pool.h"
#include "common/parallel/parallel_for.h"
#include "common/run_context.h"
#include "core/coane_model.h"
#include "datasets/attributed_sbm.h"

namespace coane {
namespace {

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(pool.Submit([&count] { count.fetch_add(1); }).ok());
  }
  pool.Shutdown();  // drains the queue before joining
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, SubmitAfterShutdownIsRejected) {
  ThreadPool pool(2);
  pool.Shutdown();
  const Status st = pool.Submit([] {});
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
}

TEST(ThreadPoolTest, ShutdownIsIdempotent) {
  ThreadPool pool(2);
  pool.Shutdown();
  pool.Shutdown();
}

TEST(ThreadPoolTest, AtLeastOneWorker) {
  ThreadPool pool(0);
  EXPECT_GE(pool.num_threads(), 1);
  std::atomic<bool> ran{false};
  ASSERT_TRUE(pool.Submit([&ran] { ran.store(true); }).ok());
  pool.Shutdown();
  EXPECT_TRUE(ran.load());
}

TEST(ParallelForTest, EmptyRangeNeverInvokesTheBody) {
  ThreadPool pool(2);
  std::atomic<int> calls{0};
  const Status st = ParallelFor(
      &pool, nullptr, "test.empty", 0, 8,
      [&calls](int64_t, int64_t, int64_t) -> Status {
        calls.fetch_add(1);
        return Status::OK();
      });
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelForTest, MoreShardsThanItemsVisitsEachItemOnce) {
  ThreadPool pool(4);
  std::mutex mu;
  std::multiset<int64_t> seen;
  const Status st = ParallelFor(
      &pool, nullptr, "test.clamp", 3, 100,
      [&](int64_t, int64_t begin, int64_t end) -> Status {
        std::lock_guard<std::mutex> lock(mu);
        for (int64_t i = begin; i < end; ++i) seen.insert(i);
        return Status::OK();
      });
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(seen, (std::multiset<int64_t>{0, 1, 2}));
}

TEST(ParallelForTest, ShardBoundariesPartitionTheRange) {
  // Shard boundaries must be a pure function of (n, num_shards): every
  // index covered exactly once, shards contiguous and even (within 1).
  ThreadPool pool(4);
  const int64_t n = 103;
  std::mutex mu;
  std::vector<std::pair<int64_t, int64_t>> ranges;
  const Status st = ParallelFor(
      &pool, nullptr, "test.partition", n, 8,
      [&](int64_t, int64_t begin, int64_t end) -> Status {
        std::lock_guard<std::mutex> lock(mu);
        ranges.emplace_back(begin, end);
        return Status::OK();
      });
  ASSERT_TRUE(st.ok());
  std::vector<int> covered(static_cast<size_t>(n), 0);
  for (const auto& [begin, end] : ranges) {
    EXPECT_LE(end - begin, n / 8 + 1);
    EXPECT_GE(end - begin, n / 8);
    for (int64_t i = begin; i < end; ++i) {
      covered[static_cast<size_t>(i)]++;
    }
  }
  for (int64_t i = 0; i < n; ++i) {
    EXPECT_EQ(covered[static_cast<size_t>(i)], 1) << "index " << i;
  }
}

TEST(ParallelForTest, ExceptionBecomesInternalStatus) {
  ThreadPool pool(2);
  const Status st = ParallelFor(
      &pool, nullptr, "test.throw", 10, 4,
      [](int64_t shard, int64_t, int64_t) -> Status {
        if (shard == 0) throw std::runtime_error("boom");
        return Status::OK();
      });
  EXPECT_EQ(st.code(), StatusCode::kInternal);
  EXPECT_NE(st.message().find("boom"), std::string::npos);
}

TEST(ParallelForTest, LowestFailedShardWinsWhenAllFail) {
  // Shard 0 is always dispatched first and every shard fails, so the
  // returned status must be shard 0's — deterministically, at any thread
  // count.
  ThreadPool pool(4);
  for (int round = 0; round < 20; ++round) {
    const Status st = ParallelFor(
        &pool, nullptr, "test.fail", 64, 64,
        [](int64_t shard, int64_t, int64_t) -> Status {
          return Status::Internal("shard " + std::to_string(shard));
        });
    ASSERT_EQ(st.code(), StatusCode::kInternal);
    EXPECT_EQ(st.message(), "shard 0");
  }
}

TEST(ParallelForTest, CancelMidLoopStartsNoNewShards) {
  // The first shard to run trips the cancel flag; the dispatcher checks
  // the context before every shard start, so the loop must stop far short
  // of the full range and report kCancelled.
  ThreadPool pool(4);
  std::atomic<bool> cancel{false};
  RunContext ctx;
  ctx.SetCancelFlag(&cancel);
  std::atomic<int64_t> invoked{0};
  const int64_t num_shards = 1000;
  const Status st = ParallelFor(
      &pool, &ctx, "test.cancel", num_shards, num_shards,
      [&](int64_t, int64_t, int64_t) -> Status {
        if (invoked.fetch_add(1) == 0) cancel.store(true);
        return Status::OK();
      });
  EXPECT_EQ(st.code(), StatusCode::kCancelled);
  // At most the in-flight shards (one per worker plus the caller) can
  // slip through after the flag is up.
  EXPECT_LT(invoked.load(), num_shards);
}

TEST(ParallelForTest, NullPoolRunsSequentiallyInShardOrder) {
  std::vector<int64_t> order;
  const Status st = ParallelFor(
      nullptr, nullptr, "test.seq", 12, 4,
      [&order](int64_t shard, int64_t, int64_t) -> Status {
        order.push_back(shard);  // single-threaded: no lock needed
        return Status::OK();
      });
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(order, (std::vector<int64_t>{0, 1, 2, 3}));
}

TEST(GlobalPoolTest, SetGlobalParallelismBuildsAndTearsDown) {
  SetGlobalParallelism(3);
  ASSERT_NE(GlobalThreadPool(), nullptr);
  EXPECT_EQ(GlobalParallelism(), 3);
  SetGlobalParallelism(1);
  EXPECT_EQ(GlobalThreadPool(), nullptr);
  EXPECT_EQ(GlobalParallelism(), 1);
}

// The epoch-boundary rollback invariant of the crash-safe training PR must
// survive parallel execution: a stop mid-epoch at --threads 2 rolls
// the partial epoch back, and the retry reproduces the uninterrupted epoch
// bit-for-bit.
TEST(ParallelTrainingTest, MidEpochStopStillRollsBackToTheEpochBoundary) {
  SetGlobalParallelism(2);
  AttributedSbmConfig sc;
  sc.num_nodes = 60;
  sc.num_classes = 2;
  sc.num_attributes = 60;
  sc.circles_per_class = 2;
  sc.seed = 71;
  AttributedNetwork net = GenerateAttributedSbm(sc).ValueOrDie();
  CoaneConfig cfg;
  cfg.walk_length = 10;
  cfg.embedding_dim = 8;
  cfg.num_negative = 3;
  cfg.max_epochs = 2;
  cfg.batch_size = 16;
  cfg.decoder_hidden = {16};

  CoaneModel straight(net.graph, cfg);
  ASSERT_TRUE(straight.Preprocess().ok());
  ASSERT_TRUE(straight.TrainEpoch().ok());
  const DenseMatrix after_one = straight.embeddings();

  CoaneModel stopped(net.graph, cfg);
  ASSERT_TRUE(stopped.Preprocess().ok());
  // One batch trains, then the injected stop lands before the second.
  fault::Reset();
  fault::Arm("train.batch", /*trigger_hit=*/2);
  auto stats = stopped.TrainEpoch();
  fault::Reset();
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(stopped.epochs_done(), 0);

  ASSERT_TRUE(stopped.TrainEpoch().ok());
  EXPECT_TRUE(stopped.embeddings().SameShape(after_one));
  EXPECT_EQ(memcmp(stopped.embeddings().data(), after_one.data(),
                   static_cast<size_t>(after_one.size()) * sizeof(float)),
            0);
  SetGlobalParallelism(1);
}

}  // namespace
}  // namespace coane

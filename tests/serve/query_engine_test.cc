// QueryEngine + Server request protocol: batching, deadlines and
// cancellation per request, link scoring against the snapshot, and the
// exact OK/ERR reply shapes the wire protocol promises.

#include "serve/query_engine.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/parallel/global_pool.h"
#include "common/rng.h"
#include "common/string_utils.h"
#include "graph/graph_io.h"
#include "serve/server.h"
#include "serve/snapshot.h"

namespace coane {
namespace serve {
namespace {

class QueryEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("coane_query_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);

    embeddings_ = DenseMatrix(60, 8);
    Rng rng(31);
    embeddings_.GaussianInit(&rng, 0.0f, 1.0f);
    emb_path_ = (dir_ / "q.emb").string();
    ASSERT_TRUE(SaveEmbeddings(embeddings_, emb_path_).ok());
  }
  void TearDown() override {
    SetGlobalParallelism(1);
    std::filesystem::remove_all(dir_);
  }

  // A started server (exact/cosine unless overridden) over q.emb.
  std::unique_ptr<Server> MakeServer(ServerOptions options = {}) {
    auto server = std::make_unique<Server>(options);
    EXPECT_TRUE(server->Start(emb_path_).ok());
    return server;
  }

  std::filesystem::path dir_;
  DenseMatrix embeddings_;
  std::string emb_path_;
};

TEST_F(QueryEngineTest, EngineWithoutSnapshotFailsPrecondition) {
  SnapshotRegistry registry;
  const QueryEngine engine(&registry);
  const auto result = engine.KnnById(0, 3);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

// What the server's unobserved-node gate relies on: a generation acquired
// once keeps answering through the *OnSnapshot forms after a hot-swap,
// while a fresh AcquireSnapshot (and the engine's own KnnById) moves on to
// the new generation.
TEST_F(QueryEngineTest, AcquiredSnapshotKeepsAnsweringAfterASwap) {
  auto server = MakeServer();
  const QueryEngine& engine = server->engine();
  auto acquired = engine.AcquireSnapshot();
  ASSERT_TRUE(acquired.ok());
  const Snapshot& first = *acquired.value();
  const std::vector<float> row_before =
      QueryEngine::FetchOnSnapshot(*engine.AcquireSnapshot().value(), 5)
          .value();
  const std::vector<Neighbor> knn_before = engine.KnnById(5, 4).value();
  const std::vector<double> score_before =
      QueryEngine::ScoreLinksOnSnapshot(*engine.AcquireSnapshot().value(),
                                        {{0, 5}}, nullptr)
          .value();

  DenseMatrix other(60, 8);
  Rng rng(77);
  other.GaussianInit(&rng, 0.0f, 1.0f);
  const std::string other_path = (dir_ / "other.emb").string();
  ASSERT_TRUE(SaveEmbeddings(other, other_path).ok());
  ASSERT_TRUE(server->Publish(other_path).ok());
  ASSERT_NE(engine.CurrentSnapshot().get(), &first);
  EXPECT_NE(
      QueryEngine::FetchOnSnapshot(*engine.AcquireSnapshot().value(), 5)
          .value(),
      row_before);

  EXPECT_EQ(QueryEngine::FetchOnSnapshot(first, 5).value(), row_before);
  const auto knn = QueryEngine::KnnByIdOnSnapshot(
      first, 5, 4, /*exclude_self=*/true, nullptr, nullptr);
  ASSERT_TRUE(knn.ok());
  ASSERT_EQ(knn.value().size(), knn_before.size());
  for (size_t i = 0; i < knn_before.size(); ++i) {
    EXPECT_EQ(knn.value()[i].id, knn_before[i].id);
    EXPECT_EQ(knn.value()[i].score, knn_before[i].score);
  }
  EXPECT_EQ(QueryEngine::ScoreLinksOnSnapshot(first, {{0, 5}}, nullptr)
                .value(),
            score_before);
}

TEST_F(QueryEngineTest, KnnByIdExcludesSelfAndRespectsK) {
  auto server = MakeServer();
  const auto result = server->engine().KnnById(7, 5);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result.value().size(), 5u);
  for (const Neighbor& n : result.value()) EXPECT_NE(n.id, 7);

  // With exclude_self off, the row itself ranks first under cosine.
  const auto with_self = server->engine().KnnById(
      7, 5, /*exclude_self=*/false);
  ASSERT_TRUE(with_self.ok());
  EXPECT_EQ(with_self.value()[0].id, 7);
}

TEST_F(QueryEngineTest, KnnBatchMatchesIndividualQueries) {
  auto server = MakeServer();
  const std::vector<int64_t> ids = {3, 59, 0, 17, 3};
  SearchStats batch_stats;
  const auto batch = server->engine().KnnBatch(ids, 4, true, &batch_stats);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch.value().size(), ids.size());
  int64_t individual_scanned = 0;
  for (size_t i = 0; i < ids.size(); ++i) {
    SearchStats stats;
    const auto single = server->engine().KnnById(ids[i], 4, true, &stats);
    ASSERT_TRUE(single.ok());
    individual_scanned += stats.vectors_scanned;
    ASSERT_EQ(batch.value()[i].size(), single.value().size());
    for (size_t j = 0; j < single.value().size(); ++j) {
      EXPECT_EQ(batch.value()[i][j].id, single.value()[j].id);
      EXPECT_EQ(batch.value()[i][j].score, single.value()[j].score);
    }
  }
  // The merged batch stats account for every per-query scan.
  EXPECT_EQ(batch_stats.vectors_scanned, individual_scanned);
}

TEST_F(QueryEngineTest, KnnBatchIsDeterministicAcrossThreadCounts) {
  auto server = MakeServer();
  std::vector<int64_t> ids;
  for (int64_t i = 0; i < 40; ++i) ids.push_back((i * 13) % 60);
  std::vector<std::vector<std::vector<Neighbor>>> per_thread;
  for (const int threads : {1, 2, 8}) {
    SetGlobalParallelism(threads);
    auto batch = server->engine().KnnBatch(ids, 6);
    ASSERT_TRUE(batch.ok());
    per_thread.push_back(std::move(batch).ValueOrDie());
  }
  for (size_t t = 1; t < per_thread.size(); ++t) {
    ASSERT_EQ(per_thread[0].size(), per_thread[t].size());
    for (size_t i = 0; i < per_thread[0].size(); ++i) {
      ASSERT_EQ(per_thread[0][i].size(), per_thread[t][i].size());
      for (size_t j = 0; j < per_thread[0][i].size(); ++j) {
        EXPECT_EQ(per_thread[0][i][j].id, per_thread[t][i][j].id);
        EXPECT_EQ(per_thread[0][i][j].score, per_thread[t][i][j].score);
      }
    }
  }
}

TEST_F(QueryEngineTest, KnnBatchHonorsExpiredDeadline) {
  auto server = MakeServer();
  RunContext ctx;
  ctx.SetDeadlineAfter(-1.0);
  const auto result = server->engine().KnnBatch({0, 1, 2}, 3, true,
                                                nullptr, &ctx);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
}

TEST_F(QueryEngineTest, KnnBatchHonorsCancellation) {
  auto server = MakeServer();
  std::atomic<bool> cancelled{true};
  RunContext ctx;
  ctx.SetCancelFlag(&cancelled);
  const auto result = server->engine().KnnBatch({0, 1}, 3, true, nullptr,
                                                &ctx);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
}

TEST_F(QueryEngineTest, KnnBatchRejectsOutOfRangeId) {
  auto server = MakeServer();
  const auto result = server->engine().KnnBatch({0, 60}, 3);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kOutOfRange);
}

TEST_F(QueryEngineTest, OversizedKIsClampedToStoreCount) {
  auto server = MakeServer();
  // A k far beyond the store (or memory) must not size any buffer from
  // the raw request: the whole store is the answer.
  const auto result =
      server->engine().KnnById(0, /*k=*/99999999999999, /*exclude_self=*/
                               true);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().size(), 59u);  // all rows minus self

  const std::string reply = server->HandleLine("KNN 99999999999999 0");
  EXPECT_TRUE(StartsWith(reply, "OK 59 ")) << reply;

  // INT64_MAX with exclude_self used to compute k + 1 (signed overflow).
  const auto extreme = server->engine().KnnById(
      0, std::numeric_limits<int64_t>::max(), /*exclude_self=*/true);
  ASSERT_TRUE(extreme.ok());
  EXPECT_EQ(extreme.value().size(), 59u);

  const auto by_vector = server->engine().KnnByVector(
      std::vector<float>(8, 0.1f), 1'000'000);
  ASSERT_TRUE(by_vector.ok());
  EXPECT_EQ(by_vector.value().size(), 60u);
}

TEST_F(QueryEngineTest, NegativeKIsRejected) {
  auto server = MakeServer();
  const auto result = server->engine().KnnById(0, -1);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(StartsWith(server->HandleLine("KNN -3 0"),
                         "ERR InvalidArgument"));
}

TEST_F(QueryEngineTest, NonFiniteQueryVectorIsRejected) {
  auto server = MakeServer();
  // Engine API: a NaN component would poison every score and break the
  // neighbor ordering's strict-weak-order contract.
  std::vector<float> query(8, 0.1f);
  query[3] = std::nanf("");
  const auto result = server->engine().KnnByVector(query, 3);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);

  // Wire protocol: strtof would happily parse "nan" and "inf".
  EXPECT_TRUE(StartsWith(
      server->HandleLine("KNNV 3 nan 0 0 0 0 0 0 0"),
      "ERR InvalidArgument"));
  EXPECT_TRUE(StartsWith(
      server->HandleLine("KNNV 3 0 inf 0 0 0 0 0 0"),
      "ERR InvalidArgument"));
}

TEST_F(QueryEngineTest, KnnByVectorRejectsDimensionMismatch) {
  auto server = MakeServer();
  const auto result =
      server->engine().KnnByVector(std::vector<float>(5, 0.1f), 3);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(QueryEngineTest, ScoreLinksMatchesManualCosine) {
  auto server = MakeServer();
  // Text round trip: compare against what the store actually holds.
  auto snapshot = server->engine().CurrentSnapshot();
  const int64_t dim = snapshot->store->dim();
  auto manual = [&](int64_t u, int64_t v) {
    const float* eu = snapshot->store->Vector(u);
    const float* ev = snapshot->store->Vector(v);
    double dot = 0.0;
    for (int64_t j = 0; j < dim; ++j) dot += double(eu[j]) * ev[j];
    return dot / (double(snapshot->store->Norm(u)) *
                  snapshot->store->Norm(v));
  };
  const std::vector<std::pair<int64_t, int64_t>> pairs = {
      {4, 4}, {0, 59}, {12, 3}};
  const auto scores =
      QueryEngine::ScoreLinksOnSnapshot(*snapshot, pairs, nullptr);
  ASSERT_TRUE(scores.ok()) << scores.status().ToString();
  ASSERT_EQ(scores.value().size(), pairs.size());
  EXPECT_NEAR(scores.value()[0], 1.0, 1e-5);  // self-similarity
  for (size_t p = 0; p < pairs.size(); ++p) {
    EXPECT_NEAR(scores.value()[p],
                manual(pairs[p].first, pairs[p].second), 1e-5);
  }
}

TEST_F(QueryEngineTest, ScoreLinksRejectsBadRow) {
  auto server = MakeServer();
  const auto scores = QueryEngine::ScoreLinksOnSnapshot(
      *server->engine().AcquireSnapshot().value(), {{0, -1}}, nullptr);
  ASSERT_FALSE(scores.ok());
  EXPECT_EQ(scores.status().code(), StatusCode::kOutOfRange);
}

TEST_F(QueryEngineTest, FetchCopiesStoredRow) {
  auto server = MakeServer();
  auto snapshot = server->engine().CurrentSnapshot();
  const auto row = QueryEngine::FetchOnSnapshot(*snapshot, 42);
  ASSERT_TRUE(row.ok());
  ASSERT_EQ(static_cast<int64_t>(row.value().size()),
            snapshot->store->dim());
  for (size_t j = 0; j < row.value().size(); ++j) {
    EXPECT_EQ(row.value()[j],
              snapshot->store->Vector(42)[static_cast<int64_t>(j)]);
  }
  EXPECT_EQ(QueryEngine::FetchOnSnapshot(*snapshot, 999).status().code(),
            StatusCode::kOutOfRange);
}

// --- Wire protocol, driven through the same HandleLine the tool uses ---

TEST_F(QueryEngineTest, ProtocolKnnReplyShape) {
  auto server = MakeServer();
  const std::string reply = server->HandleLine("KNN 3 0");
  ASSERT_TRUE(StartsWith(reply, "OK 3 ")) << reply;
  // "OK 3 id:score id:score id:score"
  const auto tokens = SplitWhitespace(reply);
  ASSERT_EQ(tokens.size(), 5u);
  for (size_t i = 2; i < tokens.size(); ++i) {
    EXPECT_NE(tokens[i].find(':'), std::string::npos);
  }
}

TEST_F(QueryEngineTest, ProtocolKnnvAcceptsFreeVector) {
  auto server = MakeServer();
  // Query with row 5's own embedding: with no self-exclusion for free
  // vectors, row 5 must rank first.
  std::string line = "KNNV 2";
  char buf[32];
  for (int64_t j = 0; j < embeddings_.cols(); ++j) {
    std::snprintf(buf, sizeof(buf), " %.9g",
                  static_cast<double>(embeddings_.At(5, j)));
    line += buf;
  }
  const std::string reply = server->HandleLine(line);
  ASSERT_TRUE(StartsWith(reply, "OK 2 ")) << reply;
  EXPECT_TRUE(StartsWith(SplitWhitespace(reply)[2], "5:")) << reply;
}

TEST_F(QueryEngineTest, ProtocolScoreGetInfoStats) {
  auto server = MakeServer();
  EXPECT_TRUE(StartsWith(server->HandleLine("SCORE 4 4"), "OK 1"));

  const std::string get = server->HandleLine("GET 9");
  EXPECT_TRUE(StartsWith(get, "OK "));
  EXPECT_EQ(SplitWhitespace(get).size(), 1u + 8u);  // "OK" + dim floats

  const std::string info = server->HandleLine("INFO");
  EXPECT_NE(info.find("count=60"), std::string::npos) << info;
  EXPECT_NE(info.find("dim=8"), std::string::npos);
  EXPECT_NE(info.find("index=exact"), std::string::npos);
  EXPECT_NE(info.find("seq=1"), std::string::npos);

  const std::string stats = server->HandleLine("STATS");
  EXPECT_TRUE(StartsWith(stats, "OK\n")) << stats;
  EXPECT_NE(stats.find("p99_ms"), std::string::npos);
  EXPECT_NE(stats.find("snapshot_swaps 1"), std::string::npos);
}

TEST_F(QueryEngineTest, ProtocolErrorReplies) {
  auto server = MakeServer();
  EXPECT_TRUE(StartsWith(server->HandleLine("FROB 1"),
                         "ERR InvalidArgument"));
  EXPECT_TRUE(StartsWith(server->HandleLine("KNN three 0"),
                         "ERR InvalidArgument"));
  EXPECT_TRUE(StartsWith(server->HandleLine("KNN 3"),
                         "ERR InvalidArgument"));
  EXPECT_TRUE(StartsWith(server->HandleLine("GET 1000"),
                         "ERR OutOfRange"));
  EXPECT_TRUE(StartsWith(server->HandleLine(""), "ERR InvalidArgument"));
  // Errors are counted in the stats report.
  EXPECT_NE(server->StatsReport().find("errors 5"), std::string::npos)
      << server->StatsReport();
}

TEST_F(QueryEngineTest, ProtocolQuitFlipsShouldQuit) {
  auto server = MakeServer();
  EXPECT_FALSE(server->ShouldQuit());
  EXPECT_EQ(server->HandleLine("QUIT"), "OK bye");
  EXPECT_TRUE(server->ShouldQuit());
}

TEST_F(QueryEngineTest, ServerCancelFlagAbortsRequests) {
  std::atomic<bool> cancel{false};
  ServerOptions options;
  options.cancel_flag = &cancel;
  auto server = MakeServer(options);
  EXPECT_TRUE(StartsWith(server->HandleLine("KNN 3 0"), "OK"));
  cancel.store(true);
  EXPECT_TRUE(StartsWith(server->HandleLine("KNN 3 0"), "ERR Cancelled"));
}

TEST_F(QueryEngineTest, IvfServerAnswersQueries) {
  ServerOptions options;
  options.snapshot.index_kind = "ivf";
  options.snapshot.ivf.nlist = 4;
  options.snapshot.ivf.nprobe = 4;  // probe all: recall 1 on 60 rows
  auto server = MakeServer(options);
  EXPECT_NE(server->HandleLine("INFO").find("index=ivf"),
            std::string::npos);
  EXPECT_TRUE(StartsWith(server->HandleLine("KNN 5 11"), "OK 5 "));
}

}  // namespace
}  // namespace serve
}  // namespace coane

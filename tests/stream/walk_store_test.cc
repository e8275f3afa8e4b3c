// Walk invalidation (ctest tier `stream`): the persisted corpus matches
// what CoaneModel's preprocessing would draw, incremental updates are
// byte-identical to a from-scratch rebuild while regenerating only walks
// that visited a changed vertex, node growth appends walk ids without
// moving existing ones, and the corpus file is CRC-guarded.

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "common/atomic_file.h"
#include "common/checksum.h"
#include "common/fault_injection.h"
#include "common/rng.h"
#include "graph/graph_builder.h"
#include "nn/serialize.h"
#include "stream/graph_apply.h"
#include "stream/mutation_log.h"
#include "stream/walk_store.h"
#include "walk/random_walk.h"

namespace coane {
namespace stream {
namespace {

constexpr int kN = 30;
constexpr int kWalksPerNode = 2;
constexpr int kWalkLength = 10;
constexpr uint64_t kSeed = 7;

// Ring with a few chords: connected, irregular degrees, cheap to rebuild.
Graph MakeRing() {
  GraphBuilder b(kN);
  for (int i = 0; i < kN; ++i) b.AddEdge(i, (i + 1) % kN);
  b.AddEdge(0, 10).AddEdge(3, 20, 2.0f).AddEdge(7, 25);
  return std::move(b).Build().ValueOrDie();
}

Mutation Mut(MutationOp op, uint64_t seq, NodeId u, NodeId v,
             float value = 1.0f) {
  Mutation m;
  m.op = op;
  m.seq = seq;
  m.u = u;
  m.v = v;
  m.value = value;
  return m;
}

std::vector<uint8_t> ChangedFlags(const ApplyDelta& delta) {
  std::vector<uint8_t> changed(delta.new_num_nodes, 0);
  for (const NodeId v : delta.structure_changed) changed[v] = 1;
  return changed;
}

TEST(WalkStoreTest, BuildMatchesModelPreprocessDraw) {
  const Graph g = MakeRing();
  auto corpus = BuildWalkCorpus(g, kWalksPerNode, kWalkLength, kSeed);
  ASSERT_TRUE(corpus.ok()) << corpus.status().ToString();

  // The master is the one engine draw preprocessing makes for walks, and
  // the walks are exactly what GenerateRandomWalks emits from that state.
  Rng rng(kSeed);
  EXPECT_EQ(corpus.value().master, rng.engine()());
  Rng fresh(kSeed);
  RandomWalkConfig config;
  config.num_walks_per_node = kWalksPerNode;
  config.walk_length = kWalkLength;
  auto direct = GenerateRandomWalks(g, config, &fresh);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(corpus.value().walks, direct.value());
  EXPECT_EQ(corpus.value().walks.size(),
            static_cast<size_t>(kN * kWalksPerNode));
}

TEST(WalkStoreTest, UpdateEqualsRebuildUnderEdgeChurn) {
  const Graph base = MakeRing();
  auto corpus = BuildWalkCorpus(base, kWalksPerNode, kWalkLength, kSeed);
  ASSERT_TRUE(corpus.ok());
  WalkCorpus updated = corpus.value();

  std::vector<Mutation> batch = {
      Mut(MutationOp::kAddEdge, 1, 2, 17),
      Mut(MutationOp::kRemoveEdge, 2, 7, 25),
      Mut(MutationOp::kAddEdge, 3, 3, 20, 5.0f),  // reweight
  };
  ApplyDelta delta;
  auto mutated =
      ApplyMutations(base, batch, 1, GraphFingerprint(base), &delta);
  ASSERT_TRUE(mutated.ok());

  WalkUpdateStats stats;
  ASSERT_TRUE(UpdateWalkCorpus(mutated.value(), ChangedFlags(delta),
                               &updated, &stats)
                  .ok());
  auto rebuilt =
      BuildWalkCorpus(mutated.value(), kWalksPerNode, kWalkLength, kSeed);
  ASSERT_TRUE(rebuilt.ok());
  // The tentpole guarantee: incremental == from-scratch, walk for walk.
  EXPECT_EQ(updated.walks, rebuilt.value().walks);
  EXPECT_EQ(updated.master, rebuilt.value().master);

  // Only walks that visited a changed vertex were regenerated; on a
  // localized mutation most of the corpus is reused untouched.
  EXPECT_EQ(stats.total_walks, kN * kWalksPerNode);
  EXPECT_EQ(stats.reused + stats.rewalked, kN * kWalksPerNode);
  EXPECT_EQ(stats.appended, 0);
  EXPECT_GT(stats.reused, 0);
  EXPECT_GT(stats.rewalked, 0);

  // Cross-check the invalidation rule itself: every reused walk visits no
  // changed vertex in the *old* corpus.
  const std::vector<uint8_t> changed = ChangedFlags(delta);
  int64_t untouched = 0;
  for (const Walk& w : corpus.value().walks) {
    bool hit = false;
    for (const NodeId v : w) hit = hit || changed[v] != 0;
    if (!hit) ++untouched;
  }
  EXPECT_EQ(stats.reused, untouched);
}

TEST(WalkStoreTest, NodeGrowthAppendsWalkIds) {
  const Graph base = MakeRing();
  auto corpus = BuildWalkCorpus(base, kWalksPerNode, kWalkLength, kSeed);
  ASSERT_TRUE(corpus.ok());
  WalkCorpus updated = corpus.value();

  std::vector<Mutation> batch = {Mut(MutationOp::kAddNode, 1, kN, 0),
                                 Mut(MutationOp::kAddEdge, 2, kN, 4)};
  batch[0].label = -1;
  ApplyDelta delta;
  auto mutated =
      ApplyMutations(base, batch, 1, GraphFingerprint(base), &delta);
  ASSERT_TRUE(mutated.ok());
  ASSERT_EQ(delta.new_num_nodes, kN + 1);

  WalkUpdateStats stats;
  ASSERT_TRUE(UpdateWalkCorpus(mutated.value(), ChangedFlags(delta),
                               &updated, &stats)
                  .ok());
  EXPECT_EQ(stats.appended, kWalksPerNode);
  EXPECT_EQ(stats.total_walks, (kN + 1) * kWalksPerNode);

  auto rebuilt =
      BuildWalkCorpus(mutated.value(), kWalksPerNode, kWalkLength, kSeed);
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_EQ(updated.walks, rebuilt.value().walks);
  // Start-major layout: the new node's walks land at the end, existing
  // walk ids never move.
  for (int r = 0; r < kWalksPerNode; ++r) {
    EXPECT_EQ(updated.walks[kN * kWalksPerNode + r].front(), kN);
  }
}

TEST(WalkStoreTest, ChainedUpdatesStayIdenticalToRebuild) {
  // Two batches folded one after the other — the corpus must track the
  // rebuild at every generation, not just after one step.
  Graph g = MakeRing();
  auto corpus = BuildWalkCorpus(g, kWalksPerNode, kWalkLength, kSeed);
  ASSERT_TRUE(corpus.ok());
  WalkCorpus updated = corpus.value();
  uint64_t chain = GraphFingerprint(g);
  uint64_t next_seq = 1;
  const std::vector<std::vector<Mutation>> rounds = {
      {Mut(MutationOp::kAddEdge, 1, 1, 14)},
      {Mut(MutationOp::kRemoveEdge, 2, 1, 14),
       Mut(MutationOp::kAddEdge, 3, 9, 22)},
  };
  for (const auto& batch : rounds) {
    ApplyDelta delta;
    auto mutated = ApplyMutations(g, batch, next_seq, chain, &delta);
    ASSERT_TRUE(mutated.ok());
    g = std::move(mutated).ValueOrDie();
    chain = delta.chain_fingerprint;
    next_seq = delta.last_seq + 1;
    ASSERT_TRUE(
        UpdateWalkCorpus(g, ChangedFlags(delta), &updated, nullptr).ok());
    auto rebuilt = BuildWalkCorpus(g, kWalksPerNode, kWalkLength, kSeed);
    ASSERT_TRUE(rebuilt.ok());
    EXPECT_EQ(updated.walks, rebuilt.value().walks);
  }
}

TEST(WalkStoreTest, SaveLoadRoundTripsAndDetectsCorruption) {
  fault::Reset();
  char tmpl[] = "/tmp/coane_wstore_XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  const std::string dir = tmpl;
  const std::string path = dir + "/gen_0.walks";

  const Graph g = MakeRing();
  auto corpus = BuildWalkCorpus(g, kWalksPerNode, kWalkLength, kSeed);
  ASSERT_TRUE(corpus.ok());
  ASSERT_TRUE(SaveWalkCorpus(corpus.value(), path).ok());

  auto loaded = LoadWalkCorpus(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().master, corpus.value().master);
  EXPECT_EQ(loaded.value().num_walks_per_node, kWalksPerNode);
  EXPECT_EQ(loaded.value().walk_length, kWalkLength);
  EXPECT_EQ(loaded.value().walks, corpus.value().walks);

  // A failed save never clobbers the durable corpus (atomic write).
  auto before = ReadFileToString(path);
  ASSERT_TRUE(before.ok());
  fault::Arm("stream.walk_save", 1);
  EXPECT_FALSE(SaveWalkCorpus(corpus.value(), path).ok());
  fault::Reset();
  auto after = ReadFileToString(path);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(before.value(), after.value());

  // A flipped byte in the payload is caught by the CRC footer.
  std::string blob = before.value();
  blob[blob.size() / 2] ^= 0x40;
  ASSERT_TRUE(WriteFileAtomic(path, blob).ok());
  auto corrupt = LoadWalkCorpus(path);
  ASSERT_FALSE(corrupt.ok());
  EXPECT_EQ(corrupt.status().code(), StatusCode::kDataLoss);

  ASSERT_TRUE(RemoveTree(dir).ok());
}

// A CRC-valid 40-byte store whose walk count or walk length is larger than
// its bytes can hold is DataLoss naming the path, rejected before the
// length can size an allocation.
TEST(WalkStoreTest, CraftedLengthsAreDataLossNotAllocations) {
  char tmpl[] = "/tmp/coane_wstore_XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  const std::string dir = tmpl;
  const std::string path = dir + "/gen_0.walks";

  // The genuine header: magic, version, master, walks per node, length.
  const Graph g = MakeRing();
  auto corpus = BuildWalkCorpus(g, kWalksPerNode, kWalkLength, kSeed);
  ASSERT_TRUE(corpus.ok());
  ASSERT_TRUE(SaveWalkCorpus(corpus.value(), path).ok());
  auto saved = ReadFileToString(path);
  ASSERT_TRUE(saved.ok());
  const std::string header = saved.value().substr(0, 24);

  struct Case {
    const char* name;
    uint64_t count;
    uint32_t first_walk_len;
  };
  for (const Case& c : {Case{"2^62 walks", uint64_t{1} << 62, 0},
                        Case{"one walk of 4e9 nodes", 1, 4000000000u}}) {
    std::string blob = header;
    AppendU64(&blob, c.count);
    AppendU32(&blob, c.first_walk_len);
    AppendU32(&blob, Crc32(blob));
    ASSERT_EQ(blob.size(), 40u);
    ASSERT_TRUE(WriteFileAtomic(path, blob).ok());
    auto loaded = LoadWalkCorpus(path);
    ASSERT_FALSE(loaded.ok()) << c.name;
    EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss) << c.name;
    EXPECT_NE(loaded.status().message().find(path), std::string::npos)
        << loaded.status().ToString();
  }

  ASSERT_TRUE(RemoveTree(dir).ok());
}

}  // namespace
}  // namespace stream
}  // namespace coane

#include "stream/walk_store.h"

#include <string>
#include <utility>

#include "common/atomic_file.h"
#include "common/checksum.h"
#include "common/parallel/global_pool.h"
#include "common/parallel/parallel_for.h"
#include "common/rng.h"
#include "nn/serialize.h"

namespace coane {
namespace stream {
namespace {

constexpr uint32_t kWalkStoreMagic = 0x43574C4Bu;  // "CWLK"
constexpr uint32_t kWalkStoreVersion = 1;

}  // namespace

Result<WalkCorpus> BuildWalkCorpus(const Graph& graph, int num_walks_per_node,
                                   int walk_length, uint64_t seed,
                                   const RunContext* ctx) {
  WalkCorpus corpus;
  corpus.num_walks_per_node = num_walks_per_node;
  corpus.walk_length = walk_length;
  // The exact master CoaneModel::Preprocess derives: imputation draws
  // nothing from the model RNG, so the walk master is the first engine
  // output of Rng(seed). Pinned by the byte-identity tests in
  // tests/stream — if Preprocess ever grows an earlier draw, they fail.
  corpus.master = Rng(seed).engine()();
  Rng rng(seed);
  auto walks = GenerateRandomWalks(
      graph,
      {.num_walks_per_node = num_walks_per_node, .walk_length = walk_length},
      &rng, ctx);
  if (!walks.ok()) return walks.status();
  corpus.walks = std::move(walks).ValueOrDie();
  return corpus;
}

Status UpdateWalkCorpus(const Graph& new_graph,
                        const std::vector<uint8_t>& changed,
                        WalkCorpus* corpus, WalkUpdateStats* stats,
                        const RunContext* ctx) {
  WalkUpdateStats local;
  WalkUpdateStats* s = stats != nullptr ? stats : &local;
  *s = WalkUpdateStats();
  if (changed.size() != static_cast<size_t>(new_graph.num_nodes())) {
    return Status::InvalidArgument(
        "changed-node flags must have one entry per node of the new graph");
  }
  const int64_t r = corpus->num_walks_per_node;
  const int64_t old_total = static_cast<int64_t>(corpus->walks.size());
  const int64_t total = new_graph.num_nodes() * r;
  if (old_total > total) {
    return Status::InvalidArgument(
        "stored corpus has more walks than the new graph supports — "
        "nodes never shrink");
  }
  s->total_walks = total;
  corpus->walks.resize(static_cast<size_t>(total));

  // Per-walk decisions are pure functions of (stored walk, changed flags,
  // master), and each walk id owns its slot — any sharding is
  // byte-identical. Reuse/rewalk tallies fold per shard, then sum in
  // shard order.
  struct ShardStats {
    int64_t reused = 0;
    int64_t rewalked = 0;
    int64_t appended = 0;
  };
  ThreadPool* pool = GlobalThreadPool();
  const int64_t num_shards = ElasticShards(pool, total);
  std::vector<ShardStats> shard_stats(static_cast<size_t>(num_shards));
  COANE_RETURN_IF_ERROR(ParallelFor(
      pool, ctx, "stream.walk_update", total, num_shards,
      [&](int64_t shard, int64_t begin, int64_t end) -> Status {
        ShardStats& ss = shard_stats[static_cast<size_t>(shard)];
        for (int64_t w = begin; w < end; ++w) {
          COANE_RETURN_IF_STOPPED(ctx, "stream.walk_update");
          if (w >= old_total) {
            corpus->walks[static_cast<size_t>(w)] = GenerateSingleWalk(
                new_graph, static_cast<NodeId>(w / r), corpus->walk_length,
                corpus->master, static_cast<uint64_t>(w));
            ++ss.appended;
            continue;
          }
          const Walk& stored = corpus->walks[static_cast<size_t>(w)];
          bool touched = false;
          for (const NodeId v : stored) {
            if (changed[static_cast<size_t>(v)] != 0) {
              touched = true;
              break;
            }
          }
          // A walk shorter than walk_length ended at a then-isolated
          // node; if that node stayed unchanged it is still isolated, so
          // the stored (short) walk remains exact.
          if (!touched) {
            ++ss.reused;
            continue;
          }
          corpus->walks[static_cast<size_t>(w)] = GenerateSingleWalk(
              new_graph, static_cast<NodeId>(w / r), corpus->walk_length,
              corpus->master, static_cast<uint64_t>(w));
          ++ss.rewalked;
        }
        return Status::OK();
      }));
  for (const ShardStats& ss : shard_stats) {
    s->reused += ss.reused;
    s->rewalked += ss.rewalked;
    s->appended += ss.appended;
  }
  return Status::OK();
}

Status SaveWalkCorpus(const WalkCorpus& corpus, const std::string& path) {
  std::string blob;
  AppendU32(&blob, kWalkStoreMagic);
  AppendU32(&blob, kWalkStoreVersion);
  AppendU64(&blob, corpus.master);
  AppendU32(&blob, static_cast<uint32_t>(corpus.num_walks_per_node));
  AppendU32(&blob, static_cast<uint32_t>(corpus.walk_length));
  AppendU64(&blob, corpus.walks.size());
  for (const Walk& walk : corpus.walks) {
    AppendU32(&blob, static_cast<uint32_t>(walk.size()));
    for (const NodeId v : walk) {
      AppendU32(&blob, static_cast<uint32_t>(v));
    }
  }
  AppendU32(&blob, Crc32(blob));
  return WriteFileAtomic(path, blob, "stream.walk_save");
}

Result<WalkCorpus> LoadWalkCorpus(const std::string& path) {
  auto read = ReadFileToString(path);
  if (!read.ok()) return read.status();
  const std::string& blob = read.value();
  if (blob.size() < sizeof(uint32_t)) {
    return Status::DataLoss("walk store " + path + " is truncated");
  }
  const size_t body = blob.size() - sizeof(uint32_t);
  ByteReader crc_reader(blob.data() + body, sizeof(uint32_t));
  uint32_t recorded = 0;
  crc_reader.ReadU32(&recorded);
  if (Crc32(blob.data(), body) != recorded) {
    return Status::DataLoss("walk store " + path + " failed its CRC check");
  }

  ByteReader reader(blob.data(), body);
  uint32_t magic = 0, version = 0, r = 0, len = 0;
  uint64_t master = 0, count = 0;
  if (!reader.ReadU32(&magic) || magic != kWalkStoreMagic) {
    return Status::DataLoss("walk store " + path + " has a bad magic");
  }
  if (!reader.ReadU32(&version) || version != kWalkStoreVersion) {
    return Status::DataLoss("walk store " + path +
                            " has an unsupported version");
  }
  if (!reader.ReadU64(&master) || !reader.ReadU32(&r) ||
      !reader.ReadU32(&len) || !reader.ReadU64(&count)) {
    return Status::DataLoss("walk store " + path + " is truncated");
  }
  // Every walk costs at least its 4-byte length and every node 4 bytes, so
  // a count the remaining bytes cannot hold is corrupt; it is rejected
  // before it sizes an allocation.
  auto too_long = [&](uint64_t n, const char* what) {
    return Status::DataLoss("walk store " + path + " declares " +
                            std::to_string(n) + " " + what + " but only " +
                            std::to_string(reader.remaining()) +
                            " byte(s) remain");
  };
  if (count > reader.remaining() / sizeof(uint32_t)) {
    return too_long(count, "walks");
  }
  WalkCorpus corpus;
  corpus.master = master;
  corpus.num_walks_per_node = static_cast<int>(r);
  corpus.walk_length = static_cast<int>(len);
  corpus.walks.resize(count);
  for (uint64_t w = 0; w < count; ++w) {
    uint32_t walk_len = 0;
    if (!reader.ReadU32(&walk_len)) {
      return Status::DataLoss("walk store " + path + " is truncated");
    }
    if (walk_len > reader.remaining() / sizeof(uint32_t)) {
      return too_long(walk_len, "nodes in a walk");
    }
    Walk& walk = corpus.walks[w];
    walk.resize(walk_len);
    for (uint32_t i = 0; i < walk_len; ++i) {
      uint32_t v = 0;
      if (!reader.ReadU32(&v)) {
        return Status::DataLoss("walk store " + path + " is truncated");
      }
      walk[i] = static_cast<NodeId>(v);
    }
  }
  if (reader.remaining() != 0) {
    return Status::DataLoss("walk store " + path + " has trailing bytes");
  }
  return corpus;
}

}  // namespace stream
}  // namespace coane

// Failure-injection and degenerate-input tests: corrupted files, extreme
// configurations, and pathological graphs must produce clean Status errors
// or sensible results — never crashes or silent corruption.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <limits>
#include <sstream>

#include "common/atomic_file.h"
#include "common/checksum.h"
#include "common/fault_injection.h"
#include "core/coane_model.h"
#include "datasets/attributed_sbm.h"
#include "graph/graph_builder.h"
#include "graph/graph_io.h"
#include "la/matrix_oracles.h"

namespace coane {
namespace {

bool BitIdentical(const DenseMatrix& a, const DenseMatrix& b) {
  return a.SameShape(b) &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.size()) * sizeof(float)) == 0;
}

AttributedNetwork TinyNet() {
  AttributedSbmConfig c;
  c.num_nodes = 60;
  c.num_classes = 2;
  c.num_attributes = 60;
  c.circles_per_class = 2;
  c.seed = 71;
  return GenerateAttributedSbm(c).ValueOrDie();
}

CoaneConfig TinyConfig() {
  CoaneConfig c;
  c.walk_length = 10;
  c.embedding_dim = 8;
  c.num_negative = 3;
  c.max_epochs = 2;
  c.batch_size = 16;
  c.decoder_hidden = {16};
  return c;
}

TEST(RobustnessTest, CorruptedEdgeFilesRejected) {
  const std::string path = "/tmp/coane_robust_edges.txt";
  const std::vector<std::string> bad_contents = {
      "0 1\nnot numbers here\n",     // garbage tokens
      "0\n",                          // too few fields
      "0 1 2 3 4\n",                  // too many fields
      "0 1\n1 1\n",                   // self loop
      "0 -3\n",                       // negative id
      "0 1 0\n",                      // zero weight
  };
  for (const std::string& contents : bad_contents) {
    {
      std::ofstream out(path);
      out << contents;
    }
    auto g = LoadAttributedGraph(path, "", "");
    EXPECT_FALSE(g.ok()) << "accepted: " << contents;
  }
  std::remove(path.c_str());
}

TEST(RobustnessTest, BatchLargerThanGraph) {
  AttributedNetwork net = TinyNet();
  CoaneConfig cfg = TinyConfig();
  cfg.batch_size = 100000;  // one batch containing every node
  auto z = TrainCoaneEmbeddings(net.graph, cfg);
  ASSERT_TRUE(z.ok()) << z.status().ToString();
  EXPECT_EQ(z.value().rows(), 60);
}

TEST(RobustnessTest, WalkLengthOne) {
  AttributedNetwork net = TinyNet();
  CoaneConfig cfg = TinyConfig();
  cfg.walk_length = 1;  // every walk is just the start node
  cfg.context_size = 3;
  auto z = TrainCoaneEmbeddings(net.graph, cfg);
  ASSERT_TRUE(z.ok()) << z.status().ToString();
}

TEST(RobustnessTest, ZeroNegativesAndZeroEpochs) {
  AttributedNetwork net = TinyNet();
  CoaneConfig cfg = TinyConfig();
  cfg.num_negative = 0;
  cfg.max_epochs = 0;  // preprocessing only; embeddings from init filters
  auto z = TrainCoaneEmbeddings(net.graph, cfg);
  ASSERT_TRUE(z.ok());
  EXPECT_GT(FrobeniusNorm(z.value()), 0.0)
      << "untrained encoder still produces non-zero pooled features";
}

TEST(RobustnessTest, GraphWithIsolatedNodesTrains) {
  // Half the nodes are isolated: walks are singletons, contexts are pure
  // padding around the midst.
  GraphBuilder b(20);
  for (int i = 0; i < 10; i += 2) {
    b.AddEdge(static_cast<NodeId>(i), static_cast<NodeId>(i + 1));
  }
  std::vector<SparseMatrix::Triplet> attrs;
  for (int v = 0; v < 20; ++v) attrs.push_back({v, v % 5, 1.0f});
  b.SetAttributes(SparseMatrix::FromTriplets(20, 5, attrs));
  Graph g = std::move(b).Build().ValueOrDie();
  CoaneConfig cfg = TinyConfig();
  auto z = TrainCoaneEmbeddings(g, cfg);
  ASSERT_TRUE(z.ok()) << z.status().ToString();
  for (int64_t i = 0; i < z.value().size(); ++i) {
    EXPECT_TRUE(std::isfinite(z.value().data()[i]));
  }
}

TEST(RobustnessTest, SingleEdgeGraph) {
  GraphBuilder b(2);
  b.AddEdge(0, 1);
  b.SetAttributes(SparseMatrix::FromTriplets(2, 3, {{0, 0, 1.0f},
                                                    {1, 1, 1.0f}}));
  Graph g = std::move(b).Build().ValueOrDie();
  CoaneConfig cfg = TinyConfig();
  cfg.num_negative = 1;
  auto z = TrainCoaneEmbeddings(g, cfg);
  ASSERT_TRUE(z.ok()) << z.status().ToString();
  EXPECT_EQ(z.value().rows(), 2);
}

TEST(RobustnessTest, HugeContextRelativeToWalk) {
  AttributedNetwork net = TinyNet();
  CoaneConfig cfg = TinyConfig();
  cfg.walk_length = 3;
  cfg.context_size = 21;  // window far wider than any walk: mostly padding
  auto z = TrainCoaneEmbeddings(net.graph, cfg);
  ASSERT_TRUE(z.ok()) << z.status().ToString();
}

TEST(RobustnessTest, EmbeddingFileRoundTripWithExtremeValues) {
  DenseMatrix m(2, 3);
  m.At(0, 0) = 1e-30f;
  m.At(0, 1) = -3.4e38f;
  m.At(0, 2) = 0.0f;
  m.At(1, 0) = 3.4e38f;
  m.At(1, 1) = 1.0f;
  m.At(1, 2) = -1e-30f;
  const std::string path = "/tmp/coane_robust_emb.txt";
  ASSERT_TRUE(SaveEmbeddings(m, path).ok());
  auto loaded = LoadEmbeddings(path);
  ASSERT_TRUE(loaded.ok());
  for (int64_t i = 0; i < m.size(); ++i) {
    const float a = m.data()[i];
    const float b = loaded.value().data()[i];
    EXPECT_NEAR(b, a, std::abs(a) * 1e-4f + 1e-30f);
  }
  std::remove(path.c_str());
}

// --- Crash-safe training: checkpoint/restore, corruption rejection, and
// --- the fault-injected recovery paths.

TEST(RobustnessTest, KillAndResumeIsBitIdentical) {
  fault::Reset();
  AttributedNetwork net = TinyNet();
  CoaneConfig cfg = TinyConfig();
  cfg.max_epochs = 4;

  // Straight run: 4 uninterrupted epochs.
  CoaneModel straight(net.graph, cfg);
  ASSERT_TRUE(straight.Preprocess().ok());
  ASSERT_TRUE(straight.Train().ok());

  // Interrupted run: 2 epochs, checkpoint, "kill".
  const std::string path = "/tmp/coane_resume.ckpt";
  {
    CoaneModel first_half(net.graph, cfg);
    ASSERT_TRUE(first_half.Preprocess().ok());
    ASSERT_TRUE(first_half.TrainEpoch().ok());
    ASSERT_TRUE(first_half.TrainEpoch().ok());
    ASSERT_TRUE(first_half.SaveCheckpoint(path).ok());
  }

  // Fresh process: preprocess, restore, finish the remaining epochs.
  CoaneModel resumed(net.graph, cfg);
  ASSERT_TRUE(resumed.Preprocess().ok());
  Status st = resumed.LoadCheckpoint(path);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(resumed.epochs_done(), 2);
  auto history = resumed.Train();
  ASSERT_TRUE(history.ok());
  EXPECT_EQ(history.value().size(), 2u);  // only the remaining epochs
  EXPECT_EQ(history.value().front().epoch, 3);

  EXPECT_TRUE(BitIdentical(straight.embeddings(), resumed.embeddings()))
      << "resumed run must match the uninterrupted run bit-for-bit";
  std::remove(path.c_str());
}

TEST(RobustnessTest, CheckpointRejectedUnderDifferentConfig) {
  AttributedNetwork net = TinyNet();
  CoaneConfig cfg = TinyConfig();
  const std::string path = "/tmp/coane_cfg_mismatch.ckpt";
  CoaneModel model(net.graph, cfg);
  ASSERT_TRUE(model.Preprocess().ok());
  ASSERT_TRUE(model.SaveCheckpoint(path).ok());

  CoaneConfig other = cfg;
  other.seed = 12345;  // different RNG stream => not resumable
  CoaneModel mismatched(net.graph, other);
  ASSERT_TRUE(mismatched.Preprocess().ok());
  Status st = mismatched.LoadCheckpoint(path);
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
  std::remove(path.c_str());
}

TEST(RobustnessTest, TruncatedCheckpointIsDataLossAndNeverLoaded) {
  AttributedNetwork net = TinyNet();
  CoaneConfig cfg = TinyConfig();
  const std::string path = "/tmp/coane_truncated.ckpt";
  CoaneModel model(net.graph, cfg);
  ASSERT_TRUE(model.Preprocess().ok());
  ASSERT_TRUE(model.TrainEpoch().ok());
  ASSERT_TRUE(model.SaveCheckpoint(path).ok());
  const DenseMatrix before = model.embeddings();

  auto contents = ReadFileToString(path);
  ASSERT_TRUE(contents.ok());
  for (double keep : {0.9, 0.5, 0.1}) {
    std::string cut = contents.value().substr(
        0, static_cast<size_t>(keep * contents.value().size()));
    std::ofstream(path, std::ios::binary | std::ios::trunc) << cut;
    Status st = model.LoadCheckpoint(path);
    EXPECT_EQ(st.code(), StatusCode::kDataLoss)
        << "keep=" << keep << ": " << st.ToString();
    // The model must keep its previous state untouched.
    EXPECT_TRUE(BitIdentical(model.embeddings(), before));
  }
  std::remove(path.c_str());
}

TEST(RobustnessTest, BitFlippedCheckpointIsDataLossAndNeverLoaded) {
  AttributedNetwork net = TinyNet();
  CoaneConfig cfg = TinyConfig();
  const std::string path = "/tmp/coane_bitflip.ckpt";
  CoaneModel model(net.graph, cfg);
  ASSERT_TRUE(model.Preprocess().ok());
  ASSERT_TRUE(model.TrainEpoch().ok());
  ASSERT_TRUE(model.SaveCheckpoint(path).ok());
  const DenseMatrix before = model.embeddings();

  auto contents = ReadFileToString(path);
  ASSERT_TRUE(contents.ok());
  const std::string& good = contents.value();
  // Flip one bit at a spread of offsets: header, section framing, and
  // payload bytes must all be caught.
  for (size_t offset :
       {size_t{0}, size_t{5}, size_t{13}, good.size() / 3,
        good.size() / 2, good.size() - 1}) {
    std::string bad = good;
    bad[offset] = static_cast<char>(bad[offset] ^ 0x10);
    std::ofstream(path, std::ios::binary | std::ios::trunc) << bad;
    Status st = model.LoadCheckpoint(path);
    EXPECT_EQ(st.code(), StatusCode::kDataLoss)
        << "offset=" << offset << ": " << st.ToString();
    EXPECT_TRUE(BitIdentical(model.embeddings(), before));
  }
  std::remove(path.c_str());
}

// Bytes and matrices meet only at the file boundary: a checkpoint read
// and written back is the same file, with and without a decoder section.
TEST(RobustnessTest, CheckpointReadThenWrittenIsTheSameBytes) {
  AttributedNetwork net = TinyNet();
  const std::string path = "/tmp/coane_reread.ckpt";
  const std::string again = "/tmp/coane_reread_again.ckpt";
  for (bool attribute_loss : {true, false}) {
    CoaneConfig cfg = TinyConfig();
    cfg.use_attribute_loss = attribute_loss;
    CoaneModel model(net.graph, cfg);
    ASSERT_TRUE(model.Preprocess().ok());
    ASSERT_TRUE(model.TrainEpoch().ok());
    ASSERT_TRUE(model.SaveCheckpoint(path).ok());
    auto state = ReadCheckpointFile(path);
    ASSERT_TRUE(state.ok()) << state.status().ToString();
    EXPECT_EQ(state.value().decoder.empty(), !attribute_loss);
    ASSERT_TRUE(WriteCheckpointFile(again, state.value()).ok());
    EXPECT_TRUE(ReadFileToString(path).ValueOrDie() ==
                ReadFileToString(again).ValueOrDie())
        << "attribute_loss=" << attribute_loss;
  }
  std::remove(path.c_str());
  std::remove(again.c_str());
}

// Section ids of the checkpoint layout (src/core/checkpoint.h).
constexpr uint32_t kEncoderSection = 3;
constexpr uint32_t kDecoderSection = 4;
constexpr uint32_t kOptimizerSection = 5;

// Applies `edit` to the payload of section `id` in the checkpoint bytes
// `f`, then rewrites that section's length and CRC, so the file stays
// CRC-valid and only the parser can reject it.
void EditSection(std::string* f, uint32_t id,
                 const std::function<void(std::string*)>& edit) {
  size_t pos = 12;  // magic, version, section count
  while (pos + 16 <= f->size()) {
    uint32_t section = 0;
    uint64_t len = 0;
    std::memcpy(&section, f->data() + pos, sizeof(section));
    std::memcpy(&len, f->data() + pos + 4, sizeof(len));
    if (section == id) {
      std::string payload = f->substr(pos + 16, len);
      edit(&payload);
      const uint64_t new_len = payload.size();
      const uint32_t crc = Crc32(payload);
      std::string framed(16, '\0');
      std::memcpy(&framed[0], &section, sizeof(section));
      std::memcpy(&framed[4], &new_len, sizeof(new_len));
      std::memcpy(&framed[12], &crc, sizeof(crc));
      f->replace(pos, 16 + len, framed + payload);
      return;
    }
    pos += 16 + len;
  }
  ADD_FAILURE() << "no checkpoint section " << id;
}

// An encoder section of one matrix that declares `rows` x `cols` and
// carries no floats.
std::function<void(std::string*)> OnlyMatrixHeader(int64_t rows,
                                                   int64_t cols) {
  return [rows, cols](std::string* f) {
    EditSection(f, kEncoderSection, [rows, cols](std::string* p) {
      p->clear();
      AppendU32(p, 1);
      AppendI64(p, rows);
      AppendI64(p, cols);
    });
  };
}

// Checkpoints that pass every CRC but carry a value or structure no writer
// produces: each must be DataLoss, and the model must keep its state.
TEST(RobustnessTest, CraftedCheckpointIsDataLossAndNeverLoaded) {
  AttributedNetwork net = TinyNet();
  CoaneConfig cfg = TinyConfig();
  const std::string path = "/tmp/coane_crafted.ckpt";
  {
    CoaneModel trained(net.graph, cfg);
    ASSERT_TRUE(trained.Preprocess().ok());
    ASSERT_TRUE(trained.TrainEpoch().ok());
    ASSERT_TRUE(trained.SaveCheckpoint(path).ok());
  }
  auto good = ReadCheckpointFile(path);
  ASSERT_TRUE(good.ok()) << good.status().ToString();

  struct Case {
    const char* name;
    // Caught by ReadCheckpointFile itself (and so by ReadCheckpointEpoch),
    // not only when the sections are applied.
    bool file_level;
    // Edits the state before WriteCheckpointFile frames it ...
    std::function<void(TrainingCheckpoint*)> edit_state;
    // ... then edits the framed bytes.
    std::function<void(std::string*)> edit_file;
  };
  const std::vector<Case> cases = {
      {"negative epochs_done", true,
       [](TrainingCheckpoint* c) { c->epochs_done = -5; }, nullptr},
      {"epochs_done past int32", true,
       [](TrainingCheckpoint* c) { c->epochs_done = (int64_t{1} << 32) + 1; },
       nullptr},
      {"NaN learning rate", true,
       [](TrainingCheckpoint* c) {
         c->learning_rate = std::numeric_limits<float>::quiet_NaN();
       },
       nullptr},
      {"infinite learning rate", true,
       [](TrainingCheckpoint* c) {
         c->learning_rate = std::numeric_limits<float>::infinity();
       },
       nullptr},
      {"negative learning rate", true,
       [](TrainingCheckpoint* c) { c->learning_rate = -0.01f; }, nullptr},
      {"negative Adam step", true, nullptr,
       [](std::string* f) {
         EditSection(f, kOptimizerSection, [](std::string* p) {
           // Slot 0's step counter follows the u32 slot count.
           const int64_t step = -1;
           std::memcpy(&(*p)[4], &step, sizeof(step));
         });
       }},
      {"bytes after the encoder section's data", true, nullptr,
       [](std::string* f) {
         EditSection(f, kEncoderSection, [](std::string* p) { *p += "junk"; });
       }},
      {"bytes after the decoder section's data", true, nullptr,
       [](std::string* f) {
         EditSection(f, kDecoderSection, [](std::string* p) { *p += "junk"; });
       }},
      {"bytes after the optimizer section's data", true, nullptr,
       [](std::string* f) {
         EditSection(f, kOptimizerSection,
                     [](std::string* p) { *p += "junk"; });
       }},
      {"decoder flag with a decoder of no layers", true, nullptr,
       [](std::string* f) {
         EditSection(f, kDecoderSection, [](std::string* p) {
           p->clear();
           AppendU32(p, 0);
         });
       }},
      {"encoder shape 2^32 x 2^32", true, nullptr,
       OnlyMatrixHeader(int64_t{1} << 32, int64_t{1} << 32)},
      {"encoder shape 3 x 2^62", true, nullptr,
       OnlyMatrixHeader(3, int64_t{1} << 62)},
      {"encoder shape past the section's bytes", true, nullptr,
       [](std::string* f) {
         EditSection(f, kEncoderSection, [](std::string* p) {
           // The first matrix's rows follow the u32 matrix count.
           const int64_t rows = int64_t{1} << 20;
           std::memcpy(&(*p)[4], &rows, sizeof(rows));
         });
       }},
      {"bytes after the last section", true, nullptr,
       [](std::string* f) { *f += "junk"; }},
      {"meta section twice", true, nullptr,
       [](std::string* f) {
         // Header: magic, version, count (u32 each); the meta section
         // follows as id u32, len u64, crc u32, payload.
         uint32_t count = 0;
         uint64_t len = 0;
         std::memcpy(&count, f->data() + 8, sizeof(count));
         std::memcpy(&len, f->data() + 16, sizeof(len));
         ++count;
         std::memcpy(&(*f)[8], &count, sizeof(count));
         *f += f->substr(12, 16 + static_cast<size_t>(len));
       }},
  };

  const std::string own_path = "/tmp/coane_crafted_own.ckpt";
  for (const Case& c : cases) {
    // A fresh epoch-0 model per case, so each case stands on its own.
    CoaneModel model(net.graph, cfg);
    ASSERT_TRUE(model.Preprocess().ok());
    const DenseMatrix before = model.embeddings();
    ASSERT_TRUE(model.SaveCheckpoint(own_path).ok());
    const std::string own_before = ReadFileToString(own_path).ValueOrDie();
    TrainingCheckpoint state = good.value();
    if (c.edit_state) c.edit_state(&state);
    ASSERT_TRUE(WriteCheckpointFile(path, state).ok()) << c.name;
    if (c.edit_file) {
      std::string bytes = ReadFileToString(path).ValueOrDie();
      c.edit_file(&bytes);
      std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
    }
    if (c.file_level) {
      EXPECT_EQ(ReadCheckpointEpoch(path).status().code(),
                StatusCode::kDataLoss)
          << c.name;
    }
    Status st = model.LoadCheckpoint(path);
    EXPECT_EQ(st.code(), StatusCode::kDataLoss) << c.name << ": "
                                                << st.ToString();
    EXPECT_TRUE(BitIdentical(model.embeddings(), before)) << c.name;
    ASSERT_TRUE(model.SaveCheckpoint(own_path).ok());
    EXPECT_TRUE(ReadFileToString(own_path).ValueOrDie() == own_before)
        << c.name;
  }
  std::remove(path.c_str());
  std::remove(own_path.c_str());
}

TEST(RobustnessTest, CheckpointWriteFaultLeavesPreviousCheckpoint) {
  fault::Reset();
  AttributedNetwork net = TinyNet();
  CoaneConfig cfg = TinyConfig();
  const std::string path = "/tmp/coane_ckpt_fault.ckpt";
  CoaneModel model(net.graph, cfg);
  ASSERT_TRUE(model.Preprocess().ok());
  ASSERT_TRUE(model.SaveCheckpoint(path).ok());

  ASSERT_TRUE(model.TrainEpoch().ok());
  fault::Arm("checkpoint.write", /*trigger_hit=*/1);
  Status st = model.SaveCheckpoint(path);
  EXPECT_EQ(st.code(), StatusCode::kIoError);
  fault::Reset();

  // The epoch-0 checkpoint survived the failed overwrite and still loads.
  CoaneModel fresh(net.graph, cfg);
  ASSERT_TRUE(fresh.Preprocess().ok());
  ASSERT_TRUE(fresh.LoadCheckpoint(path).ok());
  EXPECT_EQ(fresh.epochs_done(), 0);
  std::remove(path.c_str());
}

TEST(RobustnessTest, NanBatchRollsBackAndRecovers) {
  fault::Reset();
  AttributedNetwork net = TinyNet();
  CoaneConfig cfg = TinyConfig();
  cfg.max_epochs = 2;
  CoaneModel model(net.graph, cfg);
  ASSERT_TRUE(model.Preprocess().ok());

  // Poison the first batch gradient of the first epoch; the retry (same
  // epoch, decayed lr) must run clean and training must finish finite.
  fault::Arm("train.batch_grad", /*trigger_hit=*/1);
  auto history = model.Train();
  fault::Reset();
  ASSERT_TRUE(history.ok()) << history.status().ToString();
  EXPECT_EQ(history.value().size(), 2u);
  for (int64_t i = 0; i < model.embeddings().size(); ++i) {
    EXPECT_TRUE(std::isfinite(model.embeddings().data()[i]));
  }
}

TEST(RobustnessTest, PersistentDivergenceFailsCleanly) {
  fault::Reset();
  AttributedNetwork net = TinyNet();
  CoaneConfig cfg = TinyConfig();
  cfg.divergence_max_retries = 1;
  CoaneModel model(net.graph, cfg);
  ASSERT_TRUE(model.Preprocess().ok());

  // Every batch diverges: retries are exhausted and training reports a
  // clean Internal error instead of NaN embeddings.
  fault::Arm("train.batch_grad", /*trigger_hit=*/1,
             /*fail_count=*/1 << 20);
  auto history = model.Train();
  fault::Reset();
  ASSERT_FALSE(history.ok());
  EXPECT_EQ(history.status().code(), StatusCode::kInternal);
  // The rollback left the pre-epoch (initial) state, which is finite.
  for (int64_t i = 0; i < model.embeddings().size(); ++i) {
    EXPECT_TRUE(std::isfinite(model.embeddings().data()[i]));
  }
}

TEST(RobustnessTest, FullDiskEmbeddingSaveLeavesOldFileIntact) {
  fault::Reset();
  const std::string path = "/tmp/coane_fulldisk_emb.txt";
  DenseMatrix good(2, 2, 1.0f);
  ASSERT_TRUE(SaveEmbeddings(good, path).ok());

  DenseMatrix update(2, 2, 2.0f);
  fault::Arm("graph_io.save", /*trigger_hit=*/1);
  Status st = SaveEmbeddings(update, path);
  EXPECT_EQ(st.code(), StatusCode::kIoError);
  fault::Reset();

  auto loaded = LoadEmbeddings(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(BitIdentical(loaded.value(), good))
      << "failed save must not clobber the previous embeddings";
  std::remove(path.c_str());
}

TEST(RobustnessTest, GradClipBoundsBatchGradient) {
  AttributedNetwork net = TinyNet();
  CoaneConfig cfg = TinyConfig();
  cfg.grad_clip_norm = 0.5f;
  cfg.max_epochs = 2;
  auto z = TrainCoaneEmbeddings(net.graph, cfg);
  ASSERT_TRUE(z.ok()) << z.status().ToString();
  for (int64_t i = 0; i < z.value().size(); ++i) {
    EXPECT_TRUE(std::isfinite(z.value().data()[i]));
  }
}

}  // namespace
}  // namespace coane

// common/record_file: the CRC-footered text framing and fixed-width hex
// shared by every durable text format, then the same corruption matrix
// run through each reader built on it (manifest, plan, round log, `.pub`,
// embeddings; the stream state file runs it in the stream tier). Every
// framing defect is kDataLoss naming `path:line`.

#include "common/record_file.h"

#include <gtest/gtest.h>

#include <cctype>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "common/atomic_file.h"
#include "common/checksum.h"
#include "core/artifact_manifest.h"
#include "dist/round_log.h"
#include "dist/shard_plan.h"
#include "graph/graph_io.h"
#include "stream/provenance.h"

namespace coane {
namespace {

std::string Framed(std::string body) {
  AppendCrcFooter(&body);
  return body;
}

TEST(RecordFileTest, FooterIsEightLowercaseHexDigitsOverEveryByte) {
  const std::string body = "HEADER\nkey\tvalue\n";
  char want[32];
  std::snprintf(want, sizeof(want), "# crc32 %08x\n", Crc32(body));
  EXPECT_EQ(Framed(body), body + want);
  EXPECT_EQ(Framed(""), "# crc32 00000000\n");
}

TEST(RecordFileTest, BodyLinesCarryTheirFileLineNumbers) {
  const std::string content = Framed("HEADER\nfirst\n\nsecond\n");
  auto body = ReadRecordBody("f.tsv", content, "HEADER");
  ASSERT_TRUE(body.ok()) << body.status().ToString();
  ASSERT_EQ(body.value().size(), 2u);
  EXPECT_EQ(body.value()[0].text, "first");
  EXPECT_EQ(body.value()[0].number, 2);
  EXPECT_EQ(body.value()[1].text, "second");
  EXPECT_EQ(body.value()[1].number, 4);
}

TEST(RecordFileTest, HeaderPrefixHandsBackItsValue) {
  const std::string content = Framed("ROUNDS v1 00ab\nrow\n");
  std::string_view value;
  auto body = ReadRecordBody("r.tsv", content, "ROUNDS v1 ", &value);
  ASSERT_TRUE(body.ok()) << body.status().ToString();
  EXPECT_EQ(value, "00ab");
  ASSERT_EQ(body.value().size(), 1u);
  EXPECT_EQ(body.value()[0].text, "row");
  // The exact-header form refuses a header with anything after it.
  EXPECT_EQ(ReadRecordBody("r.tsv", content, "ROUNDS v1").status().code(),
            StatusCode::kDataLoss);
}

TEST(RecordFileTest, FramingDefectsAreDataLossAtTheirLine) {
  const std::string good = Framed("HEADER\na 1\nb 2\n");
  const std::string footer = good.substr(good.rfind("# crc32 "));
  const std::string hex = footer.substr(8, 8);
  std::string upper = hex;
  for (char& c : upper) c = static_cast<char>(std::toupper(c));
  ASSERT_NE(upper, hex) << "pick a body whose CRC has a hex letter";
  const std::string body = good.substr(0, good.size() - footer.size());
  struct Case {
    const char* name;
    std::string content;
    const char* where;
  };
  std::string flipped = good;
  flipped[8] ^= 0x01;
  const std::vector<Case> cases = {
      {"flipped body byte", flipped, "f.tsv:4:"},
      {"missing footer", body, "f.tsv:4:"},
      {"empty file", "", "f.tsv:1:"},
      {"bytes after footer", good + "c 3\n", "f.tsv:4:"},
      {"blank line after footer", good + "\n", "f.tsv:4:"},
      {"footer not last", Framed(Framed("HEADER\na 1\n") + "b 2\n"),
       "f.tsv:3:"},
      {"seven digits", body + "# crc32 " + hex.substr(0, 7) + "\n",
       "f.tsv:4:"},
      {"nine digits", body + "# crc32 " + hex + "0\n", "f.tsv:4:"},
      {"uppercase", body + "# crc32 " + upper + "\n", "f.tsv:4:"},
      {"trailing junk", body + "# crc32 " + hex + "ZZ\n", "f.tsv:4:"},
      {"bad header", Framed("HEADER2\na 1\n"), "f.tsv:1:"},
  };
  for (const Case& c : cases) {
    auto read = ReadRecordBody("f.tsv", c.content, "HEADER");
    ASSERT_FALSE(read.ok()) << c.name;
    EXPECT_EQ(read.status().code(), StatusCode::kDataLoss) << c.name;
    EXPECT_EQ(read.status().message().rfind(c.where, 0), 0u)
        << c.name << ": " << read.status().ToString();
  }
}

std::vector<std::string> Visited(const std::string& content, Status* st) {
  std::vector<std::string> lines;
  *st = ForEachRecordLine("e.emb", content, [&](const RecordLine& line) {
    lines.push_back(std::to_string(line.number) + ":" +
                    std::string(line.text));
  });
  return lines;
}

TEST(RecordFileTest, ForEachAcceptsAMissingFooterButNeverAMisplacedOne) {
  Status st;
  EXPECT_EQ(Visited("# comment\n\n0 1 2\n", &st),
            (std::vector<std::string>{"1:# comment", "3:0 1 2"}));
  EXPECT_TRUE(st.ok()) << st.ToString();

  const std::string framed = Framed("0 1 2\n");
  EXPECT_EQ(Visited(framed, &st), (std::vector<std::string>{"1:0 1 2"}));
  EXPECT_TRUE(st.ok()) << st.ToString();

  Visited(framed + "1 3 4\n", &st);
  EXPECT_EQ(st.code(), StatusCode::kDataLoss);
  EXPECT_EQ(st.message().rfind("e.emb:2:", 0), 0u) << st.ToString();

  std::string flipped = framed;
  flipped[0] = '5';
  Visited(flipped, &st);
  EXPECT_EQ(st.code(), StatusCode::kDataLoss);
  EXPECT_EQ(st.message().rfind("e.emb:2:", 0), 0u) << st.ToString();
}

TEST(RecordFileTest, HexIsFixedWidthLowercase) {
  EXPECT_EQ(Hex32(0), "00000000");
  EXPECT_EQ(Hex32(0xDEADBEEFu), "deadbeef");
  EXPECT_EQ(Hex64(0x0123456789ABCDEFULL), "0123456789abcdef");
  uint32_t v32 = 0;
  ASSERT_TRUE(ParseHex32("0badf00d", &v32));
  EXPECT_EQ(v32, 0x0badf00du);
  uint64_t v64 = 0;
  ASSERT_TRUE(ParseHex64("fedcba9876543210", &v64));
  EXPECT_EQ(v64, 0xfedcba9876543210ULL);
  for (const char* bad : {"", "badf00d", "0badf00d0", "0BADF00D", "+badf00d",
                          "0badf0 d", "0x0badf0"}) {
    EXPECT_FALSE(ParseHex32(bad, &v32)) << bad;
  }
  EXPECT_FALSE(ParseHex64("0123456789abcde", &v64));
  EXPECT_FALSE(ParseHex64("0123456789abcdeF", &v64));
}

// --- The same matrix through every reader built on the module.

class RecordFileReadersTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/coane_recordfile_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
  }
  void TearDown() override { ASSERT_TRUE(RemoveTree(dir_).ok()); }

  // A valid file `path` and the reader that loads it.
  struct Format {
    const char* name;
    std::string path;
    std::function<Status()> load;
    bool footer_optional = false;
  };

  std::vector<Format> WriteAll() {
    std::vector<Format> formats;

    ArtifactManifest manifest;
    EXPECT_TRUE(
        manifest.Record({"embeddings", "/data/g.emb", 12, 0xabcdef12u, 3})
            .ok());
    const std::string manifest_path = dir_ + "/manifest.tsv";
    EXPECT_TRUE(manifest.Save(manifest_path).ok());
    formats.push_back({"manifest", manifest_path, [manifest_path] {
                         return ArtifactManifest::Load(manifest_path)
                             .status();
                       }});

    dist::ShardPlan plan;
    plan.num_shards = 2;
    plan.quorum = 1;
    plan.round_epochs = 3;
    EXPECT_TRUE(dist::SavePlanFile(dir_, plan).ok());
    const std::string dir = dir_;
    formats.push_back({"plan", dist::PlanPath(dir_), [dir, plan] {
                         return dist::VerifyPlanFile(dir, plan);
                       }});

    const std::string rounds_path = dist::RoundLogPath(dir_);
    dist::RoundLog log(0xfeedULL);
    dist::RoundRecord r;
    r.committed = {0, 1};
    r.merged_model_crc = 0xabcdef01u;
    EXPECT_TRUE(log.Commit(r, rounds_path).ok());
    formats.push_back({"round log", rounds_path, [rounds_path] {
                         return dist::RoundLog::Load(rounds_path, 0xfeedULL)
                             .status();
                       }});

    stream::PublishInfo info;
    info.log_seq = 3;
    info.chain_fingerprint = 0xabcULL;
    info.unobserved = {1, 4};
    const std::string pub_path = dir_ + "/g.emb.pub";
    EXPECT_TRUE(stream::SavePublishInfo(info, pub_path).ok());
    formats.push_back({"pub", pub_path, [pub_path] {
                         return stream::LoadPublishInfo(pub_path).status();
                       }});

    DenseMatrix m(2, 2);
    for (int i = 0; i < 4; ++i) m.data()[i] = 0.5f * static_cast<float>(i);
    const std::string emb_path = dir_ + "/g.emb";
    EXPECT_TRUE(SaveEmbeddings(m, emb_path).ok());
    formats.push_back({"embeddings", emb_path,
                       [emb_path] { return LoadEmbeddings(emb_path).status(); },
                       /*footer_optional=*/true});
    return formats;
  }

  std::string dir_;
};

TEST_F(RecordFileReadersTest, EveryReaderRejectsTheSameDefects) {
  for (const Format& f : WriteAll()) {
    const std::string good = ReadFileToString(f.path).ValueOrDie();
    ASSERT_TRUE(f.load().ok()) << f.name << ": " << f.load().ToString();
    const size_t footer_at = good.rfind("# crc32 ");
    const std::string body = good.substr(0, footer_at);
    const std::string hex = good.substr(footer_at + 8, 8);
    std::string upper = hex;
    for (char& c : upper) c = static_cast<char>(std::toupper(c));
    // A second, self-consistent footer after the first body line.
    const size_t first_nl = body.find('\n', body.find('\n') + 1) + 1;
    const std::string early = Framed(body.substr(0, first_nl));
    std::string flipped = good;
    flipped[first_nl - 2] ^= 0x01;

    std::vector<std::pair<const char*, std::string>> defects = {
        {"flipped body byte", flipped},
        {"bytes after footer", good + "2 9 9\n"},
        {"footer not last", Framed(early + body.substr(first_nl))},
        {"seven digits", body + "# crc32 " + hex.substr(0, 7) + "\n"},
        {"nine digits", body + "# crc32 " + hex + "0\n"},
        {"trailing junk", body + "# crc32 " + hex + "ZZZ\n"},
    };
    if (upper != hex) {
      defects.push_back({"uppercase", body + "# crc32 " + upper + "\n"});
    }
    if (!f.footer_optional) defects.push_back({"missing footer", body});
    for (const auto& [defect, content] : defects) {
      ASSERT_TRUE(WriteFileAtomic(f.path, content).ok());
      const Status st = f.load();
      EXPECT_EQ(st.code(), StatusCode::kDataLoss)
          << f.name << " / " << defect << ": " << st.ToString();
      EXPECT_NE(st.message().find(f.path + ":"), std::string::npos)
          << f.name << " / " << defect << ": " << st.ToString();
    }
    if (f.footer_optional) {
      ASSERT_TRUE(WriteFileAtomic(f.path, body).ok());
      EXPECT_TRUE(f.load().ok()) << f.name << ": legacy file without footer";
    }
  }
}

}  // namespace
}  // namespace coane

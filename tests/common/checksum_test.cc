// Covers the crash-safety plumbing: CRC-32, atomic whole-file replacement,
// and the deterministic fault-injection registry that the robustness
// integration tests rely on.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/atomic_file.h"
#include "common/checksum.h"
#include "common/fault_injection.h"

namespace coane {
namespace {

std::string Slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(ChecksumTest, KnownVectors) {
  // The standard CRC-32 check value.
  EXPECT_EQ(Crc32(std::string("123456789")), 0xCBF43926u);
  EXPECT_EQ(Crc32(std::string("")), 0u);
  EXPECT_NE(Crc32(std::string("CoANE")), Crc32(std::string("CoANf")));
}

TEST(ChecksumTest, IncrementalMatchesOneShot) {
  const std::string data = "context co-occurrence";
  const uint32_t one_shot = Crc32(data);
  uint32_t running = Crc32(data.data(), 7);
  running = Crc32(data.data() + 7, data.size() - 7, running);
  EXPECT_EQ(running, one_shot);
}

TEST(AtomicFileTest, WritesAndReplaces) {
  const std::string path = "/tmp/coane_atomic_test.txt";
  ASSERT_TRUE(WriteFileAtomic(path, "first").ok());
  EXPECT_EQ(Slurp(path), "first");
  ASSERT_TRUE(WriteFileAtomic(path, "second, longer contents").ok());
  EXPECT_EQ(Slurp(path), "second, longer contents");
  // No temp file left behind.
  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(tmp.good());
  std::remove(path.c_str());
}

TEST(AtomicFileTest, RoundTripsBinary) {
  const std::string path = "/tmp/coane_atomic_binary.bin";
  std::string data;
  for (int i = 0; i < 256; ++i) data.push_back(static_cast<char>(i));
  ASSERT_TRUE(WriteFileAtomic(path, data).ok());
  auto loaded = ReadFileToString(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value(), data);
  std::remove(path.c_str());
}

TEST(AtomicFileTest, InjectedFaultLeavesTargetIntact) {
  fault::Reset();
  const std::string path = "/tmp/coane_atomic_fault.txt";
  ASSERT_TRUE(WriteFileAtomic(path, "good old contents").ok());

  fault::Arm("test.atomic_write", /*trigger_hit=*/1);
  Status st = WriteFileAtomic(path, "half-written replacement",
                              "test.atomic_write");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIoError);
  // The target still holds the previous complete contents and the torn
  // temp file was cleaned up.
  EXPECT_EQ(Slurp(path), "good old contents");
  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(tmp.good());

  // Disarmed, the same write goes through.
  fault::Reset();
  ASSERT_TRUE(
      WriteFileAtomic(path, "replacement", "test.atomic_write").ok());
  EXPECT_EQ(Slurp(path), "replacement");
  std::remove(path.c_str());
  fault::Reset();
}

TEST(AtomicFileTest, ReadMissingFileIsNotFound) {
  auto r = ReadFileToString("/tmp/coane_atomic_does_not_exist");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(FaultInjectionTest, FiresOnExactHit) {
  fault::Reset();
  fault::Arm("test.point", /*trigger_hit=*/3);
  EXPECT_FALSE(fault::ShouldFail("test.point"));  // hit 1
  EXPECT_FALSE(fault::ShouldFail("test.point"));  // hit 2
  EXPECT_TRUE(fault::ShouldFail("test.point"));   // hit 3 fires
  EXPECT_FALSE(fault::ShouldFail("test.point"));  // hit 4 passes again
  EXPECT_EQ(fault::HitCount("test.point"), 4);
  fault::Reset();
}

TEST(FaultInjectionTest, FailCountWindow) {
  fault::Reset();
  fault::Arm("test.window", /*trigger_hit=*/2, /*fail_count=*/2);
  EXPECT_FALSE(fault::ShouldFail("test.window"));
  EXPECT_TRUE(fault::ShouldFail("test.window"));
  EXPECT_TRUE(fault::ShouldFail("test.window"));
  EXPECT_FALSE(fault::ShouldFail("test.window"));
  fault::Reset();
}

TEST(FaultInjectionTest, UnarmedPointsOnlyCount) {
  fault::Reset();
  EXPECT_FALSE(fault::ShouldFail("test.unarmed"));
  EXPECT_FALSE(fault::ShouldFail("test.unarmed"));
  EXPECT_EQ(fault::HitCount("test.unarmed"), 2);
  fault::Reset();
  EXPECT_EQ(fault::HitCount("test.unarmed"), 0);
}

TEST(FaultInjectionTest, DisarmKeepsCounting) {
  fault::Reset();
  fault::Arm("test.disarm", /*trigger_hit=*/1);
  fault::Disarm("test.disarm");
  EXPECT_FALSE(fault::ShouldFail("test.disarm"));
  EXPECT_EQ(fault::HitCount("test.disarm"), 1);
  fault::Reset();
}

}  // namespace
}  // namespace coane

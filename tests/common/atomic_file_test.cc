#include "common/atomic_file.h"

#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <string>

#include "gtest/gtest.h"

namespace coane {
namespace {

class RemoveTreeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/coane_rmtree_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
  }
  void TearDown() override { EXPECT_TRUE(RemoveTree(dir_).ok()); }

  static bool Exists(const std::string& path) {
    struct stat st;
    return ::lstat(path.c_str(), &st) == 0;
  }

  std::string dir_;
};

TEST_F(RemoveTreeTest, MissingPathIsSuccess) {
  EXPECT_TRUE(RemoveTree(dir_ + "/does-not-exist").ok());
}

TEST_F(RemoveTreeTest, RemovesSingleFile) {
  const std::string file = dir_ + "/f.txt";
  ASSERT_TRUE(WriteFileAtomic(file, "x").ok());
  EXPECT_TRUE(RemoveTree(file).ok());
  EXPECT_FALSE(Exists(file));
  EXPECT_TRUE(Exists(dir_));  // only the named path goes
}

TEST_F(RemoveTreeTest, RemovesNestedTree) {
  const std::string root = dir_ + "/tree";
  ASSERT_EQ(::mkdir(root.c_str(), 0755), 0);
  ASSERT_EQ(::mkdir((root + "/a").c_str(), 0755), 0);
  ASSERT_EQ(::mkdir((root + "/a/b").c_str(), 0755), 0);
  ASSERT_TRUE(WriteFileAtomic(root + "/top.txt", "t").ok());
  ASSERT_TRUE(WriteFileAtomic(root + "/a/mid.txt", "m").ok());
  ASSERT_TRUE(WriteFileAtomic(root + "/a/b/leaf.txt", "l").ok());
  EXPECT_TRUE(RemoveTree(root).ok());
  EXPECT_FALSE(Exists(root));
}

TEST_F(RemoveTreeTest, RemovingTwiceIsIdempotent) {
  const std::string root = dir_ + "/tree";
  ASSERT_EQ(::mkdir(root.c_str(), 0755), 0);
  EXPECT_TRUE(RemoveTree(root).ok());
  EXPECT_TRUE(RemoveTree(root).ok());
}

TEST_F(RemoveTreeTest, UnlinksSymlinkWithoutFollowing) {
  // A link inside the tree must be unlinked, never traversed — deleting
  // a scratch dir must not reach through a link into live data.
  const std::string victim = dir_ + "/victim";
  ASSERT_EQ(::mkdir(victim.c_str(), 0755), 0);
  ASSERT_TRUE(WriteFileAtomic(victim + "/keep.txt", "k").ok());
  const std::string root = dir_ + "/tree";
  ASSERT_EQ(::mkdir(root.c_str(), 0755), 0);
  ASSERT_EQ(::symlink(victim.c_str(), (root + "/link").c_str()), 0);
  EXPECT_TRUE(RemoveTree(root).ok());
  EXPECT_FALSE(Exists(root));
  EXPECT_TRUE(Exists(victim + "/keep.txt"));
}

using ReadFileToStringTest = RemoveTreeTest;

TEST_F(ReadFileToStringTest, EmptyFileReadsEmpty) {
  const std::string file = dir_ + "/empty";
  ASSERT_TRUE(WriteFileAtomic(file, "").ok());
  auto contents = ReadFileToString(file);
  ASSERT_TRUE(contents.ok()) << contents.status().ToString();
  EXPECT_EQ(contents.value(), "");
}

TEST_F(ReadFileToStringTest, EmbeddedNulBytesReadWhole) {
  std::string bytes("a\0b\0\0c\xff\n", 8);
  for (int i = 0; i < 5000; ++i) bytes += std::string("\0x\n", 3);
  const std::string file = dir_ + "/nul";
  ASSERT_TRUE(WriteFileAtomic(file, bytes).ok());
  auto contents = ReadFileToString(file);
  ASSERT_TRUE(contents.ok()) << contents.status().ToString();
  EXPECT_EQ(contents.value(), bytes);
}

TEST_F(ReadFileToStringTest, MissingPathIsNotFoundNamingIt) {
  const std::string file = dir_ + "/missing";
  auto contents = ReadFileToString(file);
  ASSERT_FALSE(contents.ok());
  EXPECT_EQ(contents.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(contents.status().message(),
            "cannot open " + file + ": " + std::strerror(ENOENT));
}

// A directory opens but does not read: an error, not an empty file.
TEST_F(ReadFileToStringTest, DirectoryIsReadFailure) {
  auto contents = ReadFileToString(dir_);
  ASSERT_FALSE(contents.ok());
  EXPECT_EQ(contents.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(contents.status().message(),
            "read failure on " + dir_ + ": " + std::strerror(EISDIR));
}

// procfs reports size 0 for files that are not empty: the size is a
// hint, and the read goes on to EOF.
TEST_F(ReadFileToStringTest, FileReportingSizeZeroReadsWhole) {
  auto contents = ReadFileToString("/proc/self/status");
  ASSERT_TRUE(contents.ok()) << contents.status().ToString();
  EXPECT_NE(contents.value().find("Name:"), std::string::npos);
  EXPECT_EQ(contents.value().back(), '\n');
}

}  // namespace
}  // namespace coane

#include "common/string_utils.h"

#include <gtest/gtest.h>

namespace coane {
namespace {

TEST(SplitTest, Basic) {
  auto parts = Split("a,b,c", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
  EXPECT_EQ(parts[2], "c");
}

TEST(SplitTest, EmptyFields) {
  auto parts = Split(",a,,b,", ',');
  ASSERT_EQ(parts.size(), 5u);
  EXPECT_EQ(parts[0], "");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[4], "");
}

TEST(SplitTest, EmptyInput) {
  auto parts = Split("", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "");
}

TEST(SplitWhitespaceTest, MixedSpacing) {
  auto parts = SplitWhitespace("  1 \t 2\n3  ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "1");
  EXPECT_EQ(parts[1], "2");
  EXPECT_EQ(parts[2], "3");
}

TEST(SplitWhitespaceTest, AllWhitespace) {
  EXPECT_TRUE(SplitWhitespace(" \t\n ").empty());
}

TEST(TrimTest, Basic) {
  EXPECT_EQ(Trim("  hello \n"), "hello");
  EXPECT_EQ(Trim("x"), "x");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim(""), "");
}

TEST(StartsWithTest, Basic) {
  EXPECT_TRUE(StartsWith("coane_model", "coane"));
  EXPECT_FALSE(StartsWith("co", "coane"));
  EXPECT_TRUE(StartsWith("anything", ""));
}

TEST(FormatDoubleTest, Digits) {
  EXPECT_EQ(FormatDouble(0.12345, 3), "0.123");
  EXPECT_EQ(FormatDouble(2.0, 1), "2.0");
  EXPECT_EQ(FormatDouble(-1.5, 2), "-1.50");
}

}  // namespace
}  // namespace coane

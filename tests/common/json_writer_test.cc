// JsonWriter: the block and inline layouts, RFC 8259 string escaping,
// %.17g doubles with null for non-finite values, the integer range, and
// WriteJsonFile's parent-directory creation.

#include "common/json_writer.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <unistd.h>

#include "common/atomic_file.h"

namespace coane {
namespace {

// One string value rendered as a top-level document, newline stripped.
std::string Quoted(const std::string& s) {
  JsonWriter json;
  json.String(s);
  std::string text = json.Finish();
  text.pop_back();
  return text;
}

std::string OneDouble(double v) {
  JsonWriter json;
  json.Double(v);
  std::string text = json.Finish();
  text.pop_back();
  return text;
}

TEST(JsonWriterTest, EscapesQuoteBackslashAndEveryControlByte) {
  EXPECT_EQ(Quoted("a\"b\\c"), "\"a\\\"b\\\\c\"");
  const char* const kExpected[0x20] = {
      "\\u0000", "\\u0001", "\\u0002", "\\u0003", "\\u0004", "\\u0005",
      "\\u0006", "\\u0007", "\\b",     "\\t",     "\\n",     "\\u000b",
      "\\f",     "\\r",     "\\u000e", "\\u000f", "\\u0010", "\\u0011",
      "\\u0012", "\\u0013", "\\u0014", "\\u0015", "\\u0016", "\\u0017",
      "\\u0018", "\\u0019", "\\u001a", "\\u001b", "\\u001c", "\\u001d",
      "\\u001e", "\\u001f"};
  for (int byte = 0; byte < 0x20; ++byte) {
    const std::string in(1, static_cast<char>(byte));
    EXPECT_EQ(Quoted(in), "\"" + std::string(kExpected[byte]) + "\"")
        << "byte " << byte;
  }
  // 0x20 and up, including DEL and UTF-8 bytes, pass through unchanged.
  EXPECT_EQ(Quoted(" ~\x7f\xc3\xa9"), "\" ~\x7f\xc3\xa9\"");
}

TEST(JsonWriterTest, KeysAreEscapedLikeStrings) {
  JsonWriter json;
  json.BeginObject(JsonWriter::kInline);
  json.Key("a\"\n").Int(1);
  json.EndObject();
  EXPECT_EQ(json.Finish(), "{\"a\\\"\\n\": 1}\n");
}

TEST(JsonWriterTest, DoublesRoundTripThroughPercent17g) {
  const double values[] = {0.1,
                           1.0 / 3.0,
                           0.0,
                           -0.0,
                           1e300,
                           -2.5e-310,  // subnormal
                           std::numeric_limits<double>::max(),
                           std::numeric_limits<double>::min(),
                           std::nextafter(1.0, 2.0)};
  for (const double v : values) {
    const std::string text = OneDouble(v);
    char expected[32];
    std::snprintf(expected, sizeof(expected), "%.17g", v);
    EXPECT_EQ(text, expected);
    const double back = std::strtod(text.c_str(), nullptr);
    EXPECT_EQ(std::signbit(back), std::signbit(v)) << text;
    EXPECT_EQ(back, v) << text;
  }
  EXPECT_EQ(OneDouble(0.1), "0.10000000000000001");
  EXPECT_EQ(OneDouble(12.5), "12.5");
}

TEST(JsonWriterTest, NonFiniteDoublesAreNull) {
  EXPECT_EQ(OneDouble(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(OneDouble(-std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(OneDouble(std::nan("")), "null");
}

TEST(JsonWriterTest, IntegerExtremes) {
  JsonWriter json;
  json.BeginArray(JsonWriter::kInline);
  json.Uint(std::numeric_limits<uint64_t>::max());
  json.Int(std::numeric_limits<int64_t>::min());
  json.Int(-1);
  json.Bool(true);
  json.Bool(false);
  json.EndArray();
  EXPECT_EQ(json.Finish(),
            "[18446744073709551615, -9223372036854775808, -1, true, "
            "false]\n");
}

TEST(JsonWriterTest, EmptyContainers) {
  JsonWriter json;
  json.BeginObject();
  json.Key("block").BeginArray();
  json.EndArray();
  json.Key("inline").BeginArray(JsonWriter::kInline);
  json.EndArray();
  json.Key("object").BeginObject(JsonWriter::kInline);
  json.EndObject();
  json.EndObject();
  EXPECT_EQ(json.Finish(),
            "{\n"
            "  \"block\": [\n"
            "  ],\n"
            "  \"inline\": [],\n"
            "  \"object\": {}\n"
            "}\n");

  JsonWriter top;
  top.BeginObject();
  top.EndObject();
  EXPECT_EQ(top.Finish(), "{\n}\n");
}

TEST(JsonWriterTest, BlockAndInlineNesting) {
  JsonWriter json;
  json.BeginObject();
  json.Key("name").String("x");
  json.Key("rows").BeginArray();
  json.BeginObject();
  json.Key("m").BeginObject(JsonWriter::kInline);
  json.Key("a").Double(0.5);
  json.Key("b").Int(2);
  json.EndObject();
  json.Key("crcs").BeginArray(JsonWriter::kInline);
  json.String("00000001");
  json.EndArray();
  json.EndObject();
  json.BeginObject(JsonWriter::kInline);
  json.Key("k").Bool(false);
  json.EndObject();
  json.EndArray();
  json.EndObject();
  EXPECT_EQ(json.Finish(),
            "{\n"
            "  \"name\": \"x\",\n"
            "  \"rows\": [\n"
            "    {\n"
            "      \"m\": {\"a\": 0.5, \"b\": 2},\n"
            "      \"crcs\": [\"00000001\"]\n"
            "    },\n"
            "    {\"k\": false}\n"
            "  ]\n"
            "}\n");
}

TEST(JsonWriterTest, WriteJsonFileCreatesParentDirectories) {
  char tmpl[] = "/tmp/json_writer_test_XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  const std::string root = tmpl;
  const std::string path = root + "/a/b/out.json";
  ASSERT_TRUE(WriteJsonFile(path, "{}\n").ok());
  auto bytes = ReadFileToString(path);
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(bytes.value(), "{}\n");

  // A parent that is a regular file cannot become a directory.
  const Status blocked = WriteJsonFile(path + "/nested.json", "{}\n");
  EXPECT_FALSE(blocked.ok());
  EXPECT_TRUE(RemoveTree(root).ok());
}

}  // namespace
}  // namespace coane

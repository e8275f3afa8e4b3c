#include "common/table_printer.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

namespace coane {
namespace {

TEST(TablePrinterTest, RendersAlignedTable) {
  TablePrinter t("Table X: demo");
  t.SetHeader({"Method", "AUC"});
  t.AddRow({"node2vec", "0.896"});
  t.AddRow({"CoANE", "0.947"});
  std::string s = t.ToString();
  EXPECT_NE(s.find("Table X: demo"), std::string::npos);
  EXPECT_NE(s.find("Method"), std::string::npos);
  EXPECT_NE(s.find("CoANE"), std::string::npos);
  EXPECT_NE(s.find("0.947"), std::string::npos);
}

TEST(TablePrinterTest, WriteCsvRoundTrip) {
  TablePrinter t("t");
  t.SetHeader({"method", "score"});
  t.AddRow({"a,with,commas", "1.0"});
  t.AddRow({"plain", "2.0"});
  const std::string path = "/tmp/coane_table_test.csv";
  ASSERT_TRUE(t.WriteCsv(path).ok());
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  std::string contents = buf.str();
  EXPECT_NE(contents.find("method,score"), std::string::npos);
  EXPECT_NE(contents.find("\"a,with,commas\""), std::string::npos);
  EXPECT_NE(contents.find("plain,2.0"), std::string::npos);
  std::remove(path.c_str());
}

TEST(TablePrinterTest, WriteCsvBadPathFails) {
  TablePrinter t("t");
  t.SetHeader({"x"});
  Status s = t.WriteCsv("/nonexistent_dir_xyz/file.csv");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIoError);
}

}  // namespace
}  // namespace coane

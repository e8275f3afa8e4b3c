#include "common/table_printer.h"

#include <algorithm>
#include <fstream>
#include <iostream>
#include <sstream>

#include "common/logging.h"

namespace coane {

void TablePrinter::SetHeader(std::vector<std::string> header) {
  COANE_CHECK(rows_.empty());
  header_ = std::move(header);
}

void TablePrinter::AddRow(std::vector<std::string> row) {
  COANE_CHECK_EQ(row.size(), header_.size());
  rows_.push_back(std::move(row));
}

std::string TablePrinter::ToString() const {
  std::vector<size_t> widths(header_.size(), 0);
  for (size_t c = 0; c < header_.size(); ++c) widths[c] = header_[c].size();
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto render_row = [&](const std::vector<std::string>& row) {
    std::ostringstream os;
    for (size_t c = 0; c < row.size(); ++c) {
      os << "| " << row[c] << std::string(widths[c] - row[c].size() + 1, ' ');
    }
    os << "|";
    return os.str();
  };
  std::ostringstream out;
  out << title_ << "\n";
  std::string header_line = render_row(header_);
  out << header_line << "\n" << std::string(header_line.size(), '-') << "\n";
  for (const auto& row : rows_) out << render_row(row) << "\n";
  return out.str();
}

void TablePrinter::ToStdout() const { std::cout << ToString() << std::flush; }

Status TablePrinter::WriteCsv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open " + path + " for writing");
  auto write_row = [&out](const std::vector<std::string>& row) {
    for (size_t c = 0; c < row.size(); ++c) {
      if (c > 0) out << ",";
      // Quote fields containing separators.
      if (row[c].find_first_of(",\"\n") != std::string::npos) {
        out << '"';
        for (char ch : row[c]) {
          if (ch == '"') out << '"';
          out << ch;
        }
        out << '"';
      } else {
        out << row[c];
      }
    }
    out << "\n";
  };
  write_row(header_);
  for (const auto& row : rows_) write_row(row);
  if (!out) return Status::IoError("write failure on " + path);
  return Status::OK();
}

}  // namespace coane

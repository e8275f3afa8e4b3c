#ifndef COANE_COMMON_TABLE_PRINTER_H_
#define COANE_COMMON_TABLE_PRINTER_H_

#include <string>
#include <vector>

#include "common/status.h"

namespace coane {

/// Accumulates rows of strings and renders them either as an aligned
/// fixed-width console table (the format every bench binary prints, mirroring
/// the paper's tables) or as a CSV file for downstream plotting.
class TablePrinter {
 public:
  /// `title` is printed above the table, e.g. "Table 2: Node label
  /// classification (Cora)".
  explicit TablePrinter(std::string title) : title_(std::move(title)) {}

  /// Sets the header row. Must be called before AddRow.
  void SetHeader(std::vector<std::string> header);

  /// Appends one data row; its width must match the header.
  void AddRow(std::vector<std::string> row);

  /// Renders the aligned table to a string (also used by ToStdout).
  std::string ToString() const;

  /// Prints the aligned table to stdout.
  void ToStdout() const;

  /// Writes the table as CSV (header + rows) to `path`.
  Status WriteCsv(const std::string& path) const;

  size_t num_rows() const { return rows_.size(); }

 private:
  std::string title_;
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace coane

#endif  // COANE_COMMON_TABLE_PRINTER_H_

#include "common/record_file.h"

#include "common/checksum.h"

namespace coane {
namespace {

constexpr std::string_view kFooterPrefix = "# crc32 ";

Status LineError(const std::string& path, int line, const std::string& why) {
  return Status::DataLoss(path + ":" + std::to_string(line) + ": " + why);
}

template <typename T>
bool ParseHexWidth(std::string_view text, T* out) {
  if (text.size() != 2 * sizeof(T)) return false;
  T value = 0;
  for (const char c : text) {
    int digit;
    if (c >= '0' && c <= '9') {
      digit = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      digit = c - 'a' + 10;
    } else {
      return false;
    }
    value = static_cast<T>((value << 4) | static_cast<T>(digit));
  }
  *out = value;
  return true;
}

template <typename T>
std::string HexWidth(T value) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out(2 * sizeof(T), '0');
  for (size_t i = out.size(); i-- > 0; value >>= 4) {
    out[i] = kDigits[value & 0xF];
  }
  return out;
}

// ForEachRecordLine, also saying whether the content ended in a footer.
Status ScanLines(const std::string& path, std::string_view content,
                 const std::function<void(const RecordLine&)>& visit,
                 bool* has_footer) {
  *has_footer = false;
  size_t start = 0;
  int number = 0;
  while (start < content.size()) {
    size_t end = content.find('\n', start);
    if (end == std::string_view::npos) end = content.size();
    const std::string_view text = content.substr(start, end - start);
    ++number;
    if (text.substr(0, kFooterPrefix.size()) == kFooterPrefix) {
      if (end + 1 < content.size()) {
        return LineError(path, number,
                         "CRC footer is not the last line (content after "
                         "it)");
      }
      uint32_t recorded = 0;
      if (!ParseHex32(text.substr(kFooterPrefix.size()), &recorded)) {
        return LineError(path, number,
                         "malformed CRC footer '" + std::string(text) +
                             "' (want 8 lowercase hex digits)");
      }
      const uint32_t actual = Crc32(content.data(), start);
      if (recorded != actual) {
        return LineError(path, number,
                         "CRC mismatch: footer " + Hex32(recorded) +
                             ", content " + Hex32(actual));
      }
      *has_footer = true;
      return Status::OK();
    }
    if (!text.empty()) visit({text, number});
    start = end + 1;
  }
  return Status::OK();
}

}  // namespace

void AppendCrcFooter(std::string* body) {
  const uint32_t crc = Crc32(*body);
  body->append(kFooterPrefix);
  body->append(Hex32(crc));
  body->push_back('\n');
}

Status ForEachRecordLine(
    const std::string& path, std::string_view content,
    const std::function<void(const RecordLine&)>& visit) {
  bool has_footer = false;
  return ScanLines(path, content, visit, &has_footer);
}

Result<std::vector<RecordLine>> ReadRecordBody(
    const std::string& path, std::string_view content,
    std::string_view header_prefix, std::string_view* header_value) {
  std::vector<RecordLine> lines;
  bool has_footer = false;
  COANE_RETURN_IF_ERROR(ScanLines(
      path, content, [&](const RecordLine& line) { lines.push_back(line); },
      &has_footer));
  if (lines.empty() || lines.front().number != 1 ||
      lines.front().text.substr(0, header_prefix.size()) != header_prefix) {
    return LineError(path, 1,
                     "bad header (want '" + std::string(header_prefix) +
                         "')");
  }
  if (!has_footer) {
    return LineError(path, lines.back().number + 1,
                     "CRC footer missing (truncated?)");
  }
  *header_value = lines.front().text.substr(header_prefix.size());
  lines.erase(lines.begin());
  return lines;
}

Result<std::vector<RecordLine>> ReadRecordBody(const std::string& path,
                                               std::string_view content,
                                               std::string_view header) {
  std::string_view rest;
  auto lines = ReadRecordBody(path, content, header, &rest);
  if (lines.ok() && !rest.empty()) {
    return LineError(path, 1,
                     "bad header (want '" + std::string(header) + "')");
  }
  return lines;
}

Status RecordLineError(const std::string& path, const RecordLine& line,
                       const std::string& why) {
  return LineError(path, line.number, why);
}

std::string Hex32(uint32_t value) { return HexWidth(value); }
std::string Hex64(uint64_t value) { return HexWidth(value); }

bool ParseHex32(std::string_view text, uint32_t* out) {
  return ParseHexWidth(text, out);
}
bool ParseHex64(std::string_view text, uint64_t* out) {
  return ParseHexWidth(text, out);
}

}  // namespace coane

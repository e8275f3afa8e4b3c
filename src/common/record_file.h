#ifndef COANE_COMMON_RECORD_FILE_H_
#define COANE_COMMON_RECORD_FILE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace coane {

/// The one CRC-footered text format behind every durable text file
/// (DESIGN.md "CRC-footered text files"): a header line, body lines, and
/// a last line
///
///   # crc32 <hex8>
///
/// holding the CRC-32 of every byte before it in exactly 8 lowercase hex
/// digits. Nothing may follow the footer, and a `# crc32 ` line anywhere
/// but last is corrupt. This module is the only code that renders or
/// checks the footer; each format parses its own body lines. Every
/// framing error is kDataLoss naming `path:line`.

/// One non-empty line of a checked file. `text` (no newline) views the
/// caller's content, so the content must outlive it; `number` is the
/// 1-based line number in the file.
struct RecordLine {
  std::string_view text;
  int number = 0;
};

/// Appends the footer line covering every byte of `*body`.
void AppendCrcFooter(std::string* body);

/// Calls `visit` on each non-empty line of `content`, the bytes of the
/// file at `path`, in order. When the last line is a footer it is checked
/// (after the visits) and not visited. Content without a footer is
/// visited whole: only legacy embeddings files may lack one, every other
/// format reads through ReadRecordBody.
Status ForEachRecordLine(const std::string& path, std::string_view content,
                         const std::function<void(const RecordLine&)>& visit);

/// Checks a headed file: the first line is exactly `header` and the
/// footer is present and matches. Returns the lines between the two.
Result<std::vector<RecordLine>> ReadRecordBody(const std::string& path,
                                               std::string_view content,
                                               std::string_view header);

/// As above for a header that carries a value: the first line starts
/// with `header_prefix`, and the rest of it lands in `*header_value`.
Result<std::vector<RecordLine>> ReadRecordBody(
    const std::string& path, std::string_view content,
    std::string_view header_prefix, std::string_view* header_value);

/// kDataLoss "<path>:<line>: <why>", how format parsers report a body
/// line they cannot accept.
Status RecordLineError(const std::string& path, const RecordLine& line,
                       const std::string& why);

/// Fixed-width lowercase hex: 8 digits for 32 bits, 16 for 64. The
/// parsers accept exactly that width and case.
std::string Hex32(uint32_t value);
std::string Hex64(uint64_t value);
bool ParseHex32(std::string_view text, uint32_t* out);
bool ParseHex64(std::string_view text, uint64_t* out);

}  // namespace coane

#endif  // COANE_COMMON_RECORD_FILE_H_

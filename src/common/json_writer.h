#ifndef COANE_COMMON_JSON_WRITER_H_
#define COANE_COMMON_JSON_WRITER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"

namespace coane {

/// The one JSON renderer behind every report and bench artifact
/// (DESIGN.md §9 "Report JSON"): open containers, name members with Key,
/// write values, close containers, Finish.
///
/// A container is kBlock (one member per line, two spaces of indent per
/// level, the closing bracket on its own line; empty at depth 1 is
/// "[\n  ]") or kInline (members joined by ", " on one line; empty is
/// "[]"). Doubles are "%.17g", so they round-trip; a non-finite double is
/// null. Strings and keys are escaped per RFC 8259: `"`, `\` and every
/// byte below 0x20 (\b \t \n \f \r, otherwise \u00xx).
class JsonWriter {
 public:
  enum Layout { kBlock, kInline };

  JsonWriter& BeginObject(Layout layout = kBlock) { return Open('{', layout); }
  JsonWriter& EndObject() { return Close('}'); }
  JsonWriter& BeginArray(Layout layout = kBlock) { return Open('[', layout); }
  JsonWriter& EndArray() { return Close(']'); }

  /// Names the next value; only inside an object.
  JsonWriter& Key(std::string_view key);
  JsonWriter& String(std::string_view value);
  JsonWriter& Int(int64_t value) { return Raw(std::to_string(value)); }
  JsonWriter& Uint(uint64_t value) { return Raw(std::to_string(value)); }
  JsonWriter& Bool(bool value) { return Raw(value ? "true" : "false"); }
  JsonWriter& Double(double value);

  /// The document plus a trailing newline; every container must be closed.
  std::string Finish() { return std::move(out_) + "\n"; }

 private:
  JsonWriter& Open(char bracket, Layout layout);
  JsonWriter& Close(char bracket);
  /// The separator and indent owed before the next member.
  void Separate();
  JsonWriter& Raw(std::string_view text);
  void Quote(std::string_view text);

  std::string out_;
  std::vector<Layout> open_;  // the containers not yet closed
  bool empty_ = true;         // the innermost one has no member yet
  bool after_key_ = false;
};

/// Creates the parent directories of `path`, then writes `text` through
/// WriteFileAtomic: how every report and bench artifact reaches disk.
Status WriteJsonFile(const std::string& path, const std::string& text);

}  // namespace coane

#endif  // COANE_COMMON_JSON_WRITER_H_

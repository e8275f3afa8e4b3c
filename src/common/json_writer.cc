#include "common/json_writer.h"

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <system_error>

#include "common/atomic_file.h"
#include "common/os_error.h"

namespace coane {

void JsonWriter::Separate() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (!open_.empty() && open_.back() == kBlock) {
    out_ += empty_ ? "\n" : ",\n";
    out_.append(2 * open_.size(), ' ');
  } else if (!open_.empty() && !empty_) {
    out_ += ", ";
  }
  empty_ = false;
}

JsonWriter& JsonWriter::Open(char bracket, Layout layout) {
  Separate();
  out_ += bracket;
  open_.push_back(layout);
  empty_ = true;
  return *this;
}

JsonWriter& JsonWriter::Close(char bracket) {
  const Layout layout = open_.back();
  open_.pop_back();
  if (layout == kBlock) {
    out_ += '\n';
    out_.append(2 * open_.size(), ' ');
  }
  out_ += bracket;
  empty_ = false;
  return *this;
}

JsonWriter& JsonWriter::Raw(std::string_view text) {
  Separate();
  out_ += text;
  return *this;
}

void JsonWriter::Quote(std::string_view text) {
  out_ += '"';
  for (const char c : text) {
    const auto byte = static_cast<unsigned char>(c);
    if (c == '"' || c == '\\') {
      out_ += '\\';
      out_ += c;
    } else if (byte >= 0x20) {
      out_ += c;
    } else if (c == '\b' || c == '\t' || c == '\n' || c == '\f' ||
               c == '\r') {
      out_ += '\\';
      out_ += "btn_fr"[byte - '\b'];  // 0x08..0x0d, 0x0b has no short form
    } else {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", byte);
      out_ += buf;
    }
  }
  out_ += '"';
}

JsonWriter& JsonWriter::Key(std::string_view key) {
  Separate();
  Quote(key);
  out_ += ": ";
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::String(std::string_view value) {
  Separate();
  Quote(value);
  return *this;
}

JsonWriter& JsonWriter::Double(double value) {
  if (!std::isfinite(value)) return Raw("null");
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return Raw(buf);
}

Status WriteJsonFile(const std::string& path, const std::string& text) {
  const size_t slash = path.rfind('/');
  if (slash != std::string::npos && slash > 0) {
    std::error_code ec;
    std::filesystem::create_directories(path.substr(0, slash), ec);
    if (ec) return ErrnoToStatus(ec.value(), "mkdir " + path.substr(0, slash));
  }
  return WriteFileAtomic(path, text);
}

}  // namespace coane

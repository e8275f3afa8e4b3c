#include "stream/provenance.h"

#include "common/atomic_file.h"
#include "common/flags.h"
#include "common/fnv.h"
#include "common/record_file.h"
#include "common/string_utils.h"

namespace coane {
namespace stream {
namespace {

constexpr char kPubHeader[] = "COANE-PUB v1";

}  // namespace

std::string PublishInfoPathFor(const std::string& embeddings_path) {
  return embeddings_path + ".pub";
}

uint64_t StreamFingerprint(uint64_t config_fingerprint, uint64_t log_seq,
                           uint64_t chain_fingerprint) {
  uint64_t h = FnvMixU64(config_fingerprint, 0x5712EA4ULL);  // section tag
  h = FnvMixU64(h, log_seq);
  h = FnvMixU64(h, chain_fingerprint);
  return h;
}

Status SavePublishInfo(const PublishInfo& info, const std::string& path) {
  std::string body(kPubHeader);
  body += "\n";
  body += "log_seq " + std::to_string(info.log_seq) + "\n";
  body += "chain_fingerprint " + Hex64(info.chain_fingerprint) + "\n";
  body += "mask_fingerprint " + Hex64(info.mask_fingerprint) + "\n";
  body += "config_fingerprint " + Hex64(info.config_fingerprint) + "\n";
  body += "created_unix_ms " + std::to_string(info.created_unix_ms) + "\n";
  body += std::string("missing_attrs ") +
          MissingAttrPolicyName(info.missing_attrs) + "\n";
  body += "unobserved " + std::to_string(info.unobserved.size());
  for (const NodeId v : info.unobserved) {
    body += " " + std::to_string(v);
  }
  body += "\n";
  AppendCrcFooter(&body);
  return WriteFileAtomic(path, body, "stream.pub_save");
}

Result<PublishInfo> LoadPublishInfo(const std::string& path) {
  auto read = ReadFileToString(path);
  if (!read.ok()) return read.status();
  auto body = ReadRecordBody(path, read.value(), kPubHeader);
  if (!body.ok()) return body.status();

  PublishInfo info;
  bool saw_unobserved = false;
  for (const RecordLine& line : body.value()) {
    const std::vector<std::string> tokens = SplitWhitespace(line.text);
    if (tokens.size() < 2) {
      return RecordLineError(
          path, line, "malformed line '" + std::string(line.text) + "'");
    }
    const std::string& key = tokens[0];
    if (key == "log_seq") {
      if (!flags::ParseWhole(tokens[1], &info.log_seq)) {
        return RecordLineError(path, line, "bad log_seq");
      }
    } else if (key == "chain_fingerprint") {
      if (!ParseHex64(tokens[1], &info.chain_fingerprint)) {
        return RecordLineError(path, line, "bad chain_fingerprint");
      }
    } else if (key == "mask_fingerprint") {
      if (!ParseHex64(tokens[1], &info.mask_fingerprint)) {
        return RecordLineError(path, line, "bad mask_fingerprint");
      }
    } else if (key == "config_fingerprint") {
      if (!ParseHex64(tokens[1], &info.config_fingerprint)) {
        return RecordLineError(path, line, "bad config_fingerprint");
      }
    } else if (key == "created_unix_ms") {
      if (!flags::ParseWhole(tokens[1], &info.created_unix_ms)) {
        return RecordLineError(path, line, "bad created_unix_ms");
      }
    } else if (key == "missing_attrs") {
      auto policy = ParseMissingAttrPolicy(tokens[1]);
      if (!policy.ok()) {
        return RecordLineError(path, line, "bad missing_attrs policy");
      }
      info.missing_attrs = policy.value();
    } else if (key == "unobserved") {
      size_t count = 0;
      if (!flags::ParseWhole(tokens[1], &count) ||
          tokens.size() != count + 2) {
        return RecordLineError(path, line, "bad unobserved list");
      }
      info.unobserved.reserve(count);
      for (size_t t = 2; t < tokens.size(); ++t) {
        NodeId v = 0;
        if (!flags::ParseWhole(tokens[t], &v) || v < 0) {
          return RecordLineError(path, line,
                                 "bad unobserved id '" + tokens[t] + "'");
        }
        if (!info.unobserved.empty() && v <= info.unobserved.back()) {
          return RecordLineError(path, line,
                                 "unobserved ids must be sorted unique");
        }
        info.unobserved.push_back(v);
      }
      saw_unobserved = true;
    } else {
      return RecordLineError(path, line, "unknown key '" + key + "'");
    }
  }
  if (!saw_unobserved) {
    return Status::DataLoss(path + ": publish sidecar has no unobserved line");
  }
  return info;
}

}  // namespace stream
}  // namespace coane

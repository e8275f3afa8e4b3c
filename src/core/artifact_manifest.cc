#include "core/artifact_manifest.h"

#include <cstdio>
#include <utility>

#include "common/atomic_file.h"
#include "common/checksum.h"
#include "common/flags.h"
#include "common/record_file.h"
#include "common/string_utils.h"

namespace coane {
namespace {

constexpr char kHeader[] = "COANE-MANIFEST v1";

bool HasUnrepresentableChar(const std::string& s) {
  return s.find('\t') != std::string::npos ||
         s.find('\n') != std::string::npos ||
         s.find('\r') != std::string::npos;
}

}  // namespace

Status ArtifactManifest::Record(const ArtifactEntry& entry) {
  if (entry.kind.empty() || entry.path.empty()) {
    return Status::InvalidArgument("artifact kind and path must be set");
  }
  if (HasUnrepresentableChar(entry.kind) ||
      HasUnrepresentableChar(entry.path)) {
    return Status::InvalidArgument(
        "artifact kind/path must not contain tabs or newlines: '" +
        entry.kind + "' / '" + entry.path + "'");
  }
  for (ArtifactEntry& existing : entries_) {
    if (existing.kind == entry.kind && existing.path == entry.path) {
      existing = entry;
      return Status::OK();
    }
  }
  entries_.push_back(entry);
  return Status::OK();
}

const ArtifactEntry* ArtifactManifest::Find(const std::string& kind,
                                            const std::string& path) const {
  for (const ArtifactEntry& entry : entries_) {
    if (entry.kind == kind && entry.path == path) return &entry;
  }
  return nullptr;
}

Status ArtifactManifest::Save(const std::string& path) const {
  std::string out = std::string(kHeader) + "\n";
  for (const ArtifactEntry& e : entries_) {
    out += e.kind + "\t" + e.path + "\t" + std::to_string(e.size_bytes) +
           "\t" + Hex32(e.crc32) + "\t" + Hex64(e.config_fingerprint) + "\n";
  }
  AppendCrcFooter(&out);
  return WriteFileAtomic(path, out, "manifest.write");
}

Result<ArtifactManifest> ArtifactManifest::Load(const std::string& path) {
  auto raw = ReadFileToString(path);
  if (!raw.ok()) return raw.status();
  auto body = ReadRecordBody(path, raw.value(), kHeader);
  if (!body.ok()) return body.status();

  ArtifactManifest manifest;
  for (const RecordLine& line : body.value()) {
    const std::vector<std::string> fields = Split(line.text, '\t');
    ArtifactEntry entry;
    if (fields.size() != 5 ||
        !flags::ParseWhole(fields[2], &entry.size_bytes) ||
        !ParseHex32(fields[3], &entry.crc32) ||
        !ParseHex64(fields[4], &entry.config_fingerprint)) {
      return RecordLineError(path, line,
                             "malformed manifest line '" +
                                 std::string(line.text) + "'");
    }
    entry.kind = fields[0];
    entry.path = fields[1];
    COANE_RETURN_IF_ERROR(manifest.Record(entry));
  }
  return manifest;
}

Result<ArtifactEntry> DescribeArtifact(const std::string& kind,
                                       const std::string& path,
                                       uint64_t config_fingerprint) {
  auto raw = ReadFileToString(path);
  if (!raw.ok()) return raw.status();
  ArtifactEntry entry;
  entry.kind = kind;
  entry.path = path;
  entry.size_bytes = raw.value().size();
  entry.crc32 = Crc32(raw.value());
  entry.config_fingerprint = config_fingerprint;
  return entry;
}

Status VerifyArtifact(const ArtifactEntry& entry) {
  auto raw = ReadFileToString(entry.path);
  if (!raw.ok()) {
    return Status::NotFound("artifact " + entry.path +
                            " is missing: " + raw.status().message());
  }
  if (raw.value().size() != entry.size_bytes) {
    return Status::DataLoss(
        "artifact " + entry.path + " is " +
        std::to_string(raw.value().size()) + " bytes, manifest recorded " +
        std::to_string(entry.size_bytes));
  }
  const uint32_t actual = Crc32(raw.value());
  if (actual != entry.crc32) {
    return Status::DataLoss("artifact " + entry.path +
                            " CRC mismatch: recorded " + Hex32(entry.crc32) +
                            ", actual " + Hex32(actual));
  }
  return Status::OK();
}

Status VerifyArtifact(const ArtifactEntry& entry,
                      uint64_t expected_fingerprint) {
  COANE_RETURN_IF_ERROR(VerifyArtifact(entry));
  if (entry.config_fingerprint != expected_fingerprint) {
    return Status::FailedPrecondition(
        "artifact " + entry.path +
        " is stale: recorded config fingerprint " +
        Hex64(entry.config_fingerprint) + ", current " +
        Hex64(expected_fingerprint));
  }
  return Status::OK();
}

Status VerifyArtifactAgainstManifest(const std::string& manifest_path,
                                     const std::string& kind,
                                     const std::string& artifact_path,
                                     const uint64_t* expected_fingerprint) {
  // An unreadable or corrupt manifest keeps its own code (kIoError /
  // kInvalidArgument / kDataLoss): only a manifest that does not exist,
  // or makes no claim about this artifact, is kNotFound. Callers that
  // treat kNotFound as "no claim" must not be handed a broken manifest
  // under that label.
  auto manifest = ArtifactManifest::Load(manifest_path);
  if (!manifest.ok()) return manifest.status();
  const ArtifactEntry* entry = manifest.value().Find(kind, artifact_path);
  if (entry == nullptr) {
    return Status::NotFound("manifest " + manifest_path + " records no " +
                            kind + " entry for " + artifact_path);
  }
  if (expected_fingerprint != nullptr) {
    return VerifyArtifact(*entry, *expected_fingerprint);
  }
  return VerifyArtifact(*entry);
}

Result<std::vector<ArtifactEntry>> AttestArtifacts(
    ArtifactManifest* manifest, const std::string& manifest_path,
    const std::vector<std::pair<std::string, std::string>>& artifacts,
    uint64_t config_fingerprint, const RetryPolicy* retry) {
  // One attempt is exactly a plain call: RetryOp annotates only retries.
  const RetryPolicy policy =
      retry != nullptr ? *retry : RetryPolicy{.max_attempts = 1};
  std::vector<ArtifactEntry> entries;
  for (const auto& [kind, path] : artifacts) {
    auto entry = RetryResultOp<ArtifactEntry>(
        policy, nullptr, "manifest.describe", [&] {
          return DescribeArtifact(kind, path, config_fingerprint);
        });
    if (!entry.ok()) return entry.status();
    entries.push_back(std::move(entry).ValueOrDie());
  }
  for (const ArtifactEntry& entry : entries) {
    COANE_RETURN_IF_ERROR(manifest->Record(entry));
  }
  COANE_RETURN_IF_ERROR(
      RetryOp(policy, nullptr, "manifest.write", [&] {
        return manifest->Save(manifest_path);
      }));
  return entries;
}

std::string QuarantineArtifact(const std::string& path) {
  const std::string quarantined = path + ".corrupt";
  if (PathExists(path)) std::rename(path.c_str(), quarantined.c_str());
  return quarantined;
}

}  // namespace coane

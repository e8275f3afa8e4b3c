#ifndef COANE_CORE_ARTIFACT_MANIFEST_H_
#define COANE_CORE_ARTIFACT_MANIFEST_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/retry.h"
#include "common/status.h"

namespace coane {

/// One recorded pipeline output: a checkpoint, an embeddings file, a walk
/// or context dump. `path` is stored verbatim (the pipeline passes the
/// same path on every run, so restart lookups match by string equality);
/// `config_fingerprint` ties the artifact to the run configuration that
/// produced it (ConfigFingerprint in core/checkpoint.h), so an artifact
/// from a different config reads as *stale*, not merely present.
struct ArtifactEntry {
  std::string kind;   // "checkpoint", "embeddings", ...
  std::string path;
  uint64_t size_bytes = 0;
  uint32_t crc32 = 0;
  uint64_t config_fingerprint = 0;
};

/// Durable record of every artifact a run has produced, written via
/// WriteFileAtomic next to the artifacts it describes. On restart the
/// pipeline verifies each artifact against its entry before trusting it:
/// valid artifacts are reused, corrupt or stale ones are recomputed.
///
/// On-disk format: a CRC-footered text file (DESIGN.md §6, "CRC-footered
/// text files"), one tab-separated artifact per line — the manifest guards
/// the artifacts, the footer guards the manifest:
///
///   COANE-MANIFEST v1
///   <kind>\t<path>\t<size>\t<crc32 hex8>\t<fingerprint hex16>
///   ...
///   # crc32 <hex8>
///
/// Paths containing tab or newline characters cannot be recorded
/// (Record rejects them). Load returns kDataLoss naming `path:line` for
/// any structural or checksum defect, so a torn or hand-edited manifest
/// is never trusted.
class ArtifactManifest {
 public:
  /// Inserts `entry`, replacing any existing entry with the same
  /// (kind, path). Returns InvalidArgument for unrepresentable fields
  /// (empty kind/path, embedded tab/newline).
  Status Record(const ArtifactEntry& entry);

  /// The entry for (kind, path), or nullptr. The pointer is invalidated
  /// by the next Record.
  const ArtifactEntry* Find(const std::string& kind,
                            const std::string& path) const;

  const std::vector<ArtifactEntry>& entries() const { return entries_; }

  /// Serializes atomically to `path`. Fault point: "manifest.write".
  Status Save(const std::string& path) const;

  /// Parses and verifies `path`. ReadFileToString's error when unreadable
  /// (kNotFound when missing, kInvalidArgument for a directory); kDataLoss
  /// for a bad header, malformed line, or footer CRC mismatch.
  static Result<ArtifactManifest> Load(const std::string& path);

 private:
  std::vector<ArtifactEntry> entries_;
};

/// Stats the file at `path` and computes its CRC-32, returning the entry
/// to record. ReadFileToString's error when the file cannot be read.
Result<ArtifactEntry> DescribeArtifact(const std::string& kind,
                                       const std::string& path,
                                       uint64_t config_fingerprint);

/// Re-reads `entry.path` and compares size and CRC against the entry.
/// Returns kNotFound when the file is missing, kDataLoss (naming the
/// path) when the bytes differ from what was recorded, OK when the
/// artifact is intact.
Status VerifyArtifact(const ArtifactEntry& entry);

/// VerifyArtifact plus a staleness check: an intact artifact recorded
/// under a different config fingerprint returns kFailedPrecondition —
/// the bytes are fine but belong to another run configuration.
Status VerifyArtifact(const ArtifactEntry& entry,
                      uint64_t expected_fingerprint);

/// The one-call trust gate consumers run before acting on a published
/// artifact: loads the manifest at `manifest_path`, looks up the
/// (kind, artifact_path) entry, and verifies the artifact's bytes against
/// it (plus the fingerprint staleness check when `expected_fingerprint`
/// is non-null). Unlike the per-entry VerifyArtifact overloads, an
/// unrecorded artifact is an error here (kNotFound): a reader that asked
/// for verification must not silently fall back to trusting unattested
/// bytes. An unreadable or corrupt manifest keeps Load's own code
/// (kIoError / kInvalidArgument / kDataLoss) — it is a broken
/// attestation, not a missing claim; a manifest that does not exist is
/// kNotFound like an unrecorded entry. Used by the serving layer before
/// every snapshot build, and by `--resume` in the CLI (which treats only
/// kNotFound as "no claim" at the call site, and only once it has seen
/// the manifest exist).
Status VerifyArtifactAgainstManifest(const std::string& manifest_path,
                                     const std::string& kind,
                                     const std::string& artifact_path,
                                     const uint64_t* expected_fingerprint =
                                         nullptr);

/// The attest step every artifact writer runs after its artifacts are
/// durably on disk: describes each (kind, path) in `artifacts` (size and
/// CRC-32 under `config_fingerprint`), records the entries into
/// `manifest` in the order given — the manifest's bytes follow insertion
/// order — and saves the manifest atomically to `manifest_path`. The
/// describes and the save run under `retry`; nullptr runs each exactly
/// once. Every describe finishes before anything is recorded, so a failed
/// describe leaves `manifest` untouched, and a failed save leaves the
/// previous manifest file (which makes no claim about the new bytes) in
/// place. Returns the recorded entries in the order given.
Result<std::vector<ArtifactEntry>> AttestArtifacts(
    ArtifactManifest* manifest, const std::string& manifest_path,
    const std::vector<std::pair<std::string, std::string>>& artifacts,
    uint64_t config_fingerprint, const RetryPolicy* retry);

/// Renames a distrusted artifact to `path + ".corrupt"` so it can never
/// satisfy a later verification, and returns that path. A missing `path`
/// is left alone.
std::string QuarantineArtifact(const std::string& path);

}  // namespace coane

#endif  // COANE_CORE_ARTIFACT_MANIFEST_H_

#ifndef COANE_STREAM_MUTATION_LOG_H_
#define COANE_STREAM_MUTATION_LOG_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/status.h"
#include "graph/graph.h"

namespace coane {
namespace stream {

/// The append-only mutation log of the dynamic-graph subsystem
/// (DESIGN.md §10). A log is a text file:
///
///   COANE-MLOG v1
///   <seq> <unix_ms> <body> #<crc32hex>
///   ...
///
/// One record per line; `seq` is contiguous and ascending (the first
/// record may start anywhere >= 1, so compacted logs replay). The CRC-32
/// covers every byte of the line before " #", so a torn append, a
/// bit-flip, or a foreign line is detected record-precisely. Record
/// bodies:
///
///   edge+ <u> <v> <w>        upsert undirected edge {u, v} with weight w
///   edge- <u> <v>            remove undirected edge {u, v}
///   node+ <id> <label>       append node `id` (must equal the current
///                            node count; label -1 = unlabeled)
///   attr <node> <col> <val>  set attribute cell; `val` = "nan" marks the
///                            cell missing (observation withdrawn)
///
/// `unix_ms` is batching metadata (the publisher's age-based flush); it is
/// excluded from the chain fingerprint so replay determinism never
/// depends on wall clocks.
enum class MutationOp { kAddEdge, kRemoveEdge, kAddNode, kSetAttr };

struct Mutation {
  uint64_t seq = 0;    // assigned by the writer
  int64_t unix_ms = 0; // wall-clock append time, metadata only
  MutationOp op = MutationOp::kAddEdge;
  NodeId u = 0;        // edge endpoint / node id / attr node
  NodeId v = 0;        // second edge endpoint
  float value = 1.0f;  // edge weight / attr value
  int64_t col = 0;     // attr column
  int32_t label = -1;  // node+ label (-1 = unlabeled)
  bool masked = false; // attr: true marks the cell missing
};

/// Parses one record body ("edge+ 1 2 1.5"), the grammar the
/// `coane_streamd append --op=...` flag and log lines share. Rejects
/// malformed token counts, non-finite numerics, and negative ids.
Result<Mutation> ParseMutationBody(const std::string& body);

/// Renders the record body (inverse of ParseMutationBody; float values
/// round-trip via %.9g).
std::string FormatMutationBody(const Mutation& m);

/// What a read found. `mutations` is the longest valid prefix;
/// `valid_bytes` is the file offset one past the last valid record, so a
/// recovery can truncate precisely. A file that ends exactly at a record
/// boundary has `tail_bytes == 0`.
struct MutationLogContents {
  std::vector<Mutation> mutations;
  uint64_t last_seq = 0;    // 0 = empty log
  int64_t valid_bytes = 0;  // header + valid records
  int64_t tail_bytes = 0;   // trailing bytes that failed CRC/parse/order
  std::string tail_error;   // first diagnosis of the invalid tail
};

/// Reads and CRC-verifies `path`. A missing file is an empty log (OK). An
/// unreadable file is an error (kIoError; kInvalidArgument for a
/// directory). Corruption is *not* an error at this
/// layer: the valid prefix is returned with `tail_bytes > 0` and the
/// caller decides (appenders must recover first; the applier consumes the
/// prefix as-is).
Result<MutationLogContents> ReadMutationLog(const std::string& path);

/// Milliseconds since the Unix epoch (the `unix_ms` stamp of appended
/// records and of publish provenance). Wall-clock time is observability
/// only — it never enters a fingerprint or a determinism comparison.
int64_t NowUnixMs();

/// Truncates `path` to its valid prefix, quarantining the invalid tail to
/// `<path>.quarantine` (bytes appended, so repeated recoveries keep every
/// generation of torn tail). The truncation is atomic (temp + rename); a
/// clean log is a no-op. Returns the post-recovery contents.
Result<MutationLogContents> RecoverMutationLog(const std::string& path);

/// Appends records with assigned sequence numbers, fsync-per-append.
/// Open() scans the existing log to find the next sequence number and
/// refuses (kDataLoss) to append to a log with a torn tail — run
/// RecoverMutationLog first, so a crashed writer can never bury its own
/// garbage under fresh records.
///
/// Fault point: "stream.log_append" — fires *mid-record*: the first half
/// of the line is written and fsynced, then the append fails, exactly the
/// torn write a crash or full disk leaves behind.
class MutationLogWriter {
 public:
  MutationLogWriter(MutationLogWriter&& other) noexcept;
  MutationLogWriter& operator=(MutationLogWriter&& other) noexcept;
  MutationLogWriter(const MutationLogWriter&) = delete;
  MutationLogWriter& operator=(const MutationLogWriter&) = delete;
  ~MutationLogWriter();

  static Result<MutationLogWriter> Open(const std::string& path);

  /// Appends one record; `m.seq` is ignored and assigned (last_seq + 1),
  /// `m.unix_ms` is stamped with the current wall clock when 0. Returns
  /// the assigned sequence number. On failure the log may carry a torn
  /// tail; the writer is dead (every later Append fails) — reopen after
  /// RecoverMutationLog.
  Result<uint64_t> Append(const Mutation& m);

  /// Sequence number of the last durable record (0 = none yet).
  uint64_t last_seq() const { return last_seq_; }

  const std::string& path() const { return path_; }

 private:
  MutationLogWriter(std::string path, std::FILE* file, uint64_t last_seq);

  std::string path_;
  std::FILE* file_ = nullptr;
  uint64_t last_seq_ = 0;
  bool poisoned_ = false;
};

}  // namespace stream
}  // namespace coane

#endif  // COANE_STREAM_MUTATION_LOG_H_

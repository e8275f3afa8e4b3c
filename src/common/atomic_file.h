#ifndef COANE_COMMON_ATOMIC_FILE_H_
#define COANE_COMMON_ATOMIC_FILE_H_

#include <string>

#include "common/status.h"

namespace coane {

/// Crash-safe whole-file replacement: writes `contents` to `path + ".tmp"`,
/// fsyncs, then renames over `path`. A reader therefore observes either the
/// complete old file or the complete new file — never a truncated mix —
/// and a mid-write kill leaves the previous `path` untouched.
///
/// When `fault_point` is non-empty it names a fault-injection point (see
/// common/fault_injection.h) checked after roughly half the bytes are
/// written; an armed fault aborts before the rename, leaving the target
/// intact, exactly like a full disk or a kill would. The partially written
/// temp file is unlinked on every failure path.
///
/// Returns IoError on open/short-write/fsync/rename failures (with errno
/// text), including injected ones.
Status WriteFileAtomic(const std::string& path, const std::string& contents,
                       const std::string& fault_point = "");

/// Reads the whole file into `contents`. Binary-safe. A failed open or
/// read maps its errno through ErrnoToStatus ("cannot open <path>: ..." /
/// "read failure on <path>: ..."), so a missing path is kNotFound and a
/// directory kInvalidArgument — both permanent, never retried — while
/// other I/O faults stay kIoError.
Result<std::string> ReadFileToString(const std::string& path);

/// True when `path` names an existing file system entry (stat succeeds).
bool PathExists(const std::string& path);

/// Recursively deletes `path` (file or directory tree). A path that does
/// not exist is success — the caller wants it gone, and it is. Does not
/// follow symlinks: a link inside the tree is unlinked, never traversed.
/// Returns IoError naming the first entry that could not be removed.
Status RemoveTree(const std::string& path);

}  // namespace coane

#endif  // COANE_COMMON_ATOMIC_FILE_H_

#include "common/atomic_file.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "common/fault_injection.h"
#include "common/os_error.h"

namespace coane {
namespace {

Status Errno(const std::string& what, const std::string& path) {
  return Status::IoError(what + " " + path + ": " + std::strerror(errno));
}

// Writes all of [data, data+size) to fd, retrying on partial writes.
bool WriteAll(int fd, const char* data, size_t size) {
  size_t done = 0;
  while (done < size) {
    const ssize_t n = ::write(fd, data + done, size - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) return false;  // short write (e.g. disk full)
    done += static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

Status WriteFileAtomic(const std::string& path, const std::string& contents,
                       const std::string& fault_point) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return Errno("cannot open", tmp);

  // First half, then the fault point, then the rest: an injected failure
  // leaves a torn temp file behind (like a real crash), never a torn
  // target.
  const size_t half = contents.size() / 2;
  bool ok = WriteAll(fd, contents.data(), half);
  if (ok && !fault_point.empty() && fault::ShouldFail(fault_point)) {
    ::close(fd);
    ::unlink(tmp.c_str());
    return Status::IoError("injected fault at " + fault_point);
  }
  if (ok) ok = WriteAll(fd, contents.data() + half, contents.size() - half);
  if (!ok) {
    const Status st = Errno("short write on", tmp);
    ::close(fd);
    ::unlink(tmp.c_str());
    return st;
  }
  if (::fsync(fd) != 0) {
    const Status st = Errno("fsync failed on", tmp);
    ::close(fd);
    ::unlink(tmp.c_str());
    return st;
  }
  if (::close(fd) != 0) {
    const Status st = Errno("close failed on", tmp);
    ::unlink(tmp.c_str());
    return st;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    const Status st = Errno("rename failed onto", path);
    ::unlink(tmp.c_str());
    return st;
  }
  return Status::OK();
}

Result<std::string> ReadFileToString(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return ErrnoToStatus(errno, "cannot open " + path);
  // The size is a hint, one byte over so EOF shows without growing; a
  // file that grows, or reports 0 (procfs), still reads to EOF.
  struct stat st;
  const bool sized = ::fstat(fd, &st) == 0 && st.st_size > 0;
  std::string contents(sized ? static_cast<size_t>(st.st_size) + 1 : 1, '\0');
  size_t done = 0;
  ssize_t n;
  while ((n = ::read(fd, &contents[done], contents.size() - done)) != 0) {
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) {
      const int err = errno;
      ::close(fd);
      return ErrnoToStatus(err, "read failure on " + path);
    }
    done += static_cast<size_t>(n);
    if (done == contents.size()) contents.resize(2 * done);
  }
  ::close(fd);
  contents.resize(done);
  return contents;
}

bool PathExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

Status RemoveTree(const std::string& path) {
  struct stat st;
  if (::lstat(path.c_str(), &st) != 0) {
    if (errno == ENOENT) return Status::OK();
    return Errno("lstat failed on", path);
  }
  if (!S_ISDIR(st.st_mode)) {
    if (::unlink(path.c_str()) != 0) return Errno("unlink failed on", path);
    return Status::OK();
  }
  DIR* dir = ::opendir(path.c_str());
  if (dir == nullptr) return Errno("opendir failed on", path);
  Status result = Status::OK();
  while (struct dirent* entry = ::readdir(dir)) {
    const std::string name = entry->d_name;
    if (name == "." || name == "..") continue;
    result = RemoveTree(path + "/" + name);
    if (!result.ok()) break;
  }
  ::closedir(dir);
  if (!result.ok()) return result;
  if (::rmdir(path.c_str()) != 0) return Errno("rmdir failed on", path);
  return Status::OK();
}

}  // namespace coane

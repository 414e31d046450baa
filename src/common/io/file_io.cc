#include "common/io/file_io.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>

namespace xcluster {

namespace {

Status Errno(const std::string& op, const std::string& path) {
  return Status::IOError(op + " " + path + ": " + std::strerror(errno));
}

Status WriteAll(int fd, const char* data, size_t n, const std::string& path) {
  while (n > 0) {
    ssize_t written = ::write(fd, data, n);
    if (written < 0) {
      if (errno == EINTR) continue;
      return Errno("write", path);
    }
    data += written;
    n -= static_cast<size_t>(written);
  }
  return Status::OK();
}

Status SyncDirectory(const std::string& dir) {
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return Errno("open dir", dir);
  Status status;
  if (::fsync(fd) != 0) status = Errno("fsync dir", dir);
  ::close(fd);
  return status;
}

}  // namespace

Status WriteFileAtomic(const std::string& path, std::string_view data,
                       bool sync) {
  XCLUSTER_ASSIGN_OR_RETURN(const std::string tmp,
                            WriteTempSibling(path, data, sync));
  return CommitTempFile(tmp, path, sync);
}

Result<std::string> WriteTempSibling(const std::string& path,
                                     std::string_view data, bool sync) {
  static std::atomic<uint64_t> next_temp{0};
  const std::string tmp =
      path + ".tmp." + std::to_string(::getpid()) + "." +
      std::to_string(next_temp.fetch_add(1, std::memory_order_relaxed));

  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return Errno("open", tmp);

  Status status = WriteAll(fd, data.data(), data.size(), tmp);
  if (status.ok() && sync && ::fsync(fd) != 0) status = Errno("fsync", tmp);
  if (::close(fd) != 0 && status.ok()) status = Errno("close", tmp);
  if (!status.ok()) {
    ::unlink(tmp.c_str());
    return status;
  }
  return tmp;
}

Status CommitTempFile(const std::string& tmp, const std::string& path,
                      bool sync) {
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    const Status status = Errno("rename", tmp);
    ::unlink(tmp.c_str());
    return status;
  }
  if (!sync) return Status::OK();
  const size_t slash = path.find_last_of('/');
  return SyncDirectory(slash == std::string::npos ? "."
                                                  : path.substr(0, slash));
}

Result<std::string> ReadFileToString(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return Errno("open", path);

  std::string out;
  char buf[1 << 16];
  for (;;) {
    ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      Status status = Errno("read", path);
      ::close(fd);
      return status;
    }
    if (n == 0) break;
    out.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return out;
}

}  // namespace xcluster

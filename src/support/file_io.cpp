#include "src/support/file_io.h"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <dirent.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

namespace sdfmap {

namespace {

std::string describe(IoOp op, const std::string& path, int error_number,
                     const std::string& detail) {
  std::string msg = std::string(io_op_name(op)) + " " + path + ": ";
  msg += detail.empty() ? std::strerror(error_number) : detail;
  return msg;
}

/// Parent directory of `path` ("." when it has no separator).
std::string parent_dir(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

/// RAII fd for the non-Appender paths (closed without consulting the hook:
/// closing a read fd cannot lose data, and unwinding from an injected fault
/// must not itself fault).
struct Fd {
  int fd = -1;
  ~Fd() {
    if (fd >= 0) ::close(fd);
  }
};

}  // namespace

IoError::IoError(IoOp op, std::string path, int error_number, const std::string& detail)
    : std::runtime_error(describe(op, path, error_number, detail)),
      op_(op),
      path_(std::move(path)),
      error_(error_number) {}

FileIo::FileIo(IoFaultHook hook)
    : seam_(std::move(hook), {ECANCELED, "simulated crash (all later I/O fails)"}) {}

void FileIo::make_dirs(const std::string& dir) {
  if (dir.empty() || dir == "/" || dir == ".") return;
  std::string partial;
  std::size_t pos = 0;
  while (pos <= dir.size()) {
    const std::size_t slash = dir.find('/', pos);
    const std::size_t end = slash == std::string::npos ? dir.size() : slash;
    partial = dir.substr(0, end);
    pos = end + 1;
    if (partial.empty()) continue;
    seam_.enter(IoOp::kMkdir, partial);
    if (::mkdir(partial.c_str(), 0775) != 0 && errno != EEXIST) {
      throw IoError(IoOp::kMkdir, partial, errno, "");
    }
    if (slash == std::string::npos) break;
  }
}

std::optional<std::string> FileIo::read_file(const std::string& path) {
  seam_.enter(IoOp::kOpen, path);
  Fd fd{::open(path.c_str(), O_RDONLY | O_CLOEXEC)};
  if (fd.fd < 0) {
    if (errno == ENOENT) return std::nullopt;
    throw IoError(IoOp::kOpen, path, errno, "");
  }
  std::string content;
  char buffer[1 << 16];
  for (;;) {
    seam_.enter(IoOp::kRead, path);
    const ssize_t n = ::read(fd.fd, buffer, sizeof buffer);
    if (n < 0) throw IoError(IoOp::kRead, path, errno, "");
    if (n == 0) break;
    content.append(buffer, static_cast<std::size_t>(n));
  }
  return content;
}

std::optional<std::int64_t> FileIo::file_size(const std::string& path) {
  seam_.enter(IoOp::kStat, path);
  struct stat st{};
  if (::stat(path.c_str(), &st) != 0) {
    if (errno == ENOENT) return std::nullopt;
    throw IoError(IoOp::kStat, path, errno, "");
  }
  return static_cast<std::int64_t>(st.st_size);
}

std::vector<std::string> FileIo::list_files(const std::string& dir) {
  seam_.enter(IoOp::kList, dir);
  DIR* handle = ::opendir(dir.c_str());
  if (!handle) throw IoError(IoOp::kList, dir, errno, "");
  std::vector<std::string> names;
  while (const dirent* entry = ::readdir(handle)) {
    const std::string name = entry->d_name;
    if (name == "." || name == "..") continue;
    struct stat st{};
    if (::stat((dir + "/" + name).c_str(), &st) == 0 && S_ISREG(st.st_mode)) {
      names.push_back(name);
    }
  }
  ::closedir(handle);
  std::sort(names.begin(), names.end());
  return names;
}

void FileIo::remove_file(const std::string& path) {
  seam_.enter(IoOp::kUnlink, path);
  if (::unlink(path.c_str()) != 0 && errno != ENOENT) {
    throw IoError(IoOp::kUnlink, path, errno, "");
  }
}

void FileIo::atomic_write_file(const std::string& path, std::string_view bytes) {
  const std::string tmp = path + ".tmp";
  {
    seam_.enter(IoOp::kOpen, tmp);
    Fd fd{::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0664)};
    if (fd.fd < 0) throw IoError(IoOp::kOpen, tmp, errno, "");
    std::size_t written = 0;
    while (written < bytes.size()) {
      const FaultDecision decision = seam_.enter(IoOp::kWrite, tmp);
      std::size_t want = bytes.size() - written;
      const bool injected_short =
          decision.kind == FaultDecision::Kind::kShortWrite && decision.short_bytes < want;
      if (injected_short) want = decision.short_bytes;
      const ssize_t n = want == 0 ? 0 : ::write(fd.fd, bytes.data() + written, want);
      if (n < 0) throw IoError(IoOp::kWrite, tmp, errno, "");
      written += static_cast<std::size_t>(n);
      if (injected_short) throw IoError(IoOp::kWrite, tmp, EIO, "injected short write");
    }
    seam_.enter(IoOp::kFsync, tmp);
    if (::fsync(fd.fd) != 0) throw IoError(IoOp::kFsync, tmp, errno, "");
  }
  seam_.enter(IoOp::kRename, path);
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    throw IoError(IoOp::kRename, path, errno, "");
  }
  // Persist the rename itself: fsync the containing directory.
  const std::string dir = parent_dir(path);
  seam_.enter(IoOp::kFsync, dir);
  Fd dirfd{::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC)};
  if (dirfd.fd >= 0) ::fsync(dirfd.fd);  // best-effort: some filesystems refuse
}

FileIo::Appender::Appender(FileIo* io, int fd, std::string path)
    : io_(io), fd_(fd), path_(std::move(path)) {}

FileIo::Appender::~Appender() {
  if (fd_ >= 0) ::close(fd_);
}

void FileIo::Appender::append(std::string_view bytes) {
  const FaultDecision decision = io_->seam_.enter(IoOp::kWrite, path_);
  std::size_t want = bytes.size();
  const bool injected_short =
      decision.kind == FaultDecision::Kind::kShortWrite && decision.short_bytes < want;
  if (injected_short) want = decision.short_bytes;
  std::size_t written = 0;
  while (written < want) {
    const ssize_t n = ::write(fd_, bytes.data() + written, want - written);
    if (n < 0) throw IoError(IoOp::kWrite, path_, errno, "");
    written += static_cast<std::size_t>(n);
  }
  if (injected_short) throw IoError(IoOp::kWrite, path_, EIO, "injected short write");
}

void FileIo::Appender::sync() {
  io_->seam_.enter(IoOp::kFsync, path_);
  if (::fsync(fd_) != 0) throw IoError(IoOp::kFsync, path_, errno, "");
}

std::unique_ptr<FileIo::Appender> FileIo::open_append(const std::string& path) {
  seam_.enter(IoOp::kOpen, path);
  const int fd = ::open(path.c_str(), O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC, 0664);
  if (fd < 0) throw IoError(IoOp::kOpen, path, errno, "");
  return std::unique_ptr<Appender>(new Appender(this, fd, path));
}

FileIo::Lock::~Lock() {
  if (fd_ >= 0) {
    ::flock(fd_, LOCK_UN);
    ::close(fd_);
  }
}

std::optional<FileIo::Lock> FileIo::try_lock_exclusive(const std::string& path) {
  seam_.enter(IoOp::kLock, path);
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0664);
  if (fd < 0) throw IoError(IoOp::kLock, path, errno, "");
  if (::flock(fd, LOCK_EX | LOCK_NB) != 0) {
    const int saved = errno;
    ::close(fd);
    if (saved == EWOULDBLOCK || saved == EAGAIN) return std::nullopt;
    throw IoError(IoOp::kLock, path, saved, "");
  }
  return Lock(fd);
}

}  // namespace sdfmap

#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/support/fault_seam.h"

namespace sdfmap {

/// Which primitive an I/O call is about to perform. Reported to IoFaultHook
/// (with the call's global index) and carried by IoError for diagnostics.
enum class IoOp {
  kOpen,
  kRead,
  kWrite,
  kFsync,
  kClose,
  kRename,
  kUnlink,
  kMkdir,
  kLock,
  kList,
  kStat,
};

[[nodiscard]] constexpr const char* io_op_name(IoOp op) {
  switch (op) {
    case IoOp::kOpen: return "open";
    case IoOp::kRead: return "read";
    case IoOp::kWrite: return "write";
    case IoOp::kFsync: return "fsync";
    case IoOp::kClose: return "close";
    case IoOp::kRename: return "rename";
    case IoOp::kUnlink: return "unlink";
    case IoOp::kMkdir: return "mkdir";
    case IoOp::kLock: return "lock";
    case IoOp::kList: return "list";
    case IoOp::kStat: return "stat";
  }
  return "?";
}

/// A failed (or injected-to-fail) file-system primitive. Thrown by every
/// FileIo operation; the persistent cache catches it at its boundary and
/// degrades to the in-memory tier — IoError never escapes into an analysis.
class IoError : public std::runtime_error {
 public:
  IoError(IoOp op, std::string path, int error_number, const std::string& detail);

  [[nodiscard]] IoOp op() const { return op_; }
  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] int error_number() const { return error_; }

 private:
  IoOp op_;
  std::string path_;
  int error_;
};

/// Fault hook of one FileIo context (fault_seam.h): consulted before every
/// primitive with the call index, the operation and the target path.
using IoFaultHook = FaultSeam<IoOp, IoError, std::string>::Hook;

/// Thin RAII + fault-injection shim over the POSIX file primitives the
/// persistent cache needs: whole-file reads, append streams, fsync,
/// atomic-rename replacement, advisory locks, and directory listing. Every
/// primitive enters the fault seam first and reports failure by throwing
/// IoError.
class FileIo {
 public:
  explicit FileIo(IoFaultHook hook = {});

  FileIo(const FileIo&) = delete;
  FileIo& operator=(const FileIo&) = delete;

  [[nodiscard]] bool crashed() const { return seam_.crashed(); }
  [[nodiscard]] int calls() const { return seam_.calls(); }

  /// Creates `dir` (and parents). Existing directories are not an error.
  void make_dirs(const std::string& dir);

  /// Whole-file read; std::nullopt when the file does not exist.
  [[nodiscard]] std::optional<std::string> read_file(const std::string& path);

  /// Size in bytes, or std::nullopt when the file does not exist.
  [[nodiscard]] std::optional<std::int64_t> file_size(const std::string& path);

  /// Sorted names of regular files directly inside `dir`.
  [[nodiscard]] std::vector<std::string> list_files(const std::string& dir);

  /// Deletes `path`; missing files are not an error.
  void remove_file(const std::string& path);

  /// Crash-safe whole-file replacement: write `path`.tmp, fsync it, rename
  /// over `path`, fsync the parent directory. Readers see either the old or
  /// the new content, never a mix.
  void atomic_write_file(const std::string& path, std::string_view bytes);

  /// Append-only output stream (O_APPEND | O_CREAT). One append() call issues
  /// one write(); a torn append therefore corrupts at most the record being
  /// written, which recovery salvages around.
  class Appender {
   public:
    ~Appender();
    Appender(const Appender&) = delete;
    Appender& operator=(const Appender&) = delete;

    void append(std::string_view bytes);
    void sync();

   private:
    friend class FileIo;
    Appender(FileIo* io, int fd, std::string path);
    FileIo* io_;
    int fd_;
    std::string path_;
  };

  [[nodiscard]] std::unique_ptr<Appender> open_append(const std::string& path);

  /// Held advisory exclusive lock (flock); released on destruction.
  class Lock {
   public:
    ~Lock();
    Lock(Lock&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
    Lock& operator=(Lock&& other) noexcept {
      std::swap(fd_, other.fd_);
      return *this;
    }
    Lock(const Lock&) = delete;
    Lock& operator=(const Lock&) = delete;

   private:
    friend class FileIo;
    explicit Lock(int fd) : fd_(fd) {}
    int fd_;
  };

  /// Non-blocking advisory exclusive lock on `path` (created if missing).
  /// std::nullopt when another holder — in this process or any other — has
  /// it. Throws IoError only for real failures (e.g. the lock file cannot be
  /// created).
  [[nodiscard]] std::optional<Lock> try_lock_exclusive(const std::string& path);

 private:
  friend class Appender;

  FaultSeam<IoOp, IoError, std::string> seam_;
};

}  // namespace sdfmap

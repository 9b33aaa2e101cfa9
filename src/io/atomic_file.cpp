#include "io/atomic_file.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <sstream>

#include "obs/metrics.hpp"
#include "util/errors.hpp"
#include "util/log.hpp"

namespace rsm::io {
namespace {

[[noreturn]] void throw_io(const std::string& what, const std::string& path,
                           int err = 0) {
  std::ostringstream os;
  os << what << " '" << path << '\'';
  if (err != 0) os << ": " << std::strerror(err);
  throw IoError(os.str(), "fs");
}

/// Writes all of [data, data+size) to fd, looping over partial writes.
void write_all(int fd, const char* data, std::size_t size,
               const std::string& path) {
  std::size_t done = 0;
  while (done < size) {
    const ssize_t n = ::write(fd, data + done, size - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_io("write failed on", path, errno);
    }
    done += static_cast<std::size_t>(n);
  }
}

/// Applies the injected fault for this op, if any: persists the fault
/// mode's prefix, then throws IoError. No-op for clean ops.
void apply_injected_fault(int fd, std::string_view data, std::uint64_t op,
                          const FaultSchedule<FsFaultKind>* faults,
                          const std::string& path) {
  if (faults == nullptr || !faults->enabled()) return;
  const FsFaultKind kind = faults->kind(op);
  if (kind == FsFaultKind::kNone) return;
  obs::metrics().counter("io.fs_faults.injected").increment();
  std::size_t persisted = 0;
  switch (kind) {
    case FsFaultKind::kTornWrite: persisted = data.size() / 2; break;
    case FsFaultKind::kShortWrite:
      persisted = data.empty() ? 0 : data.size() - 1;
      break;
    case FsFaultKind::kNoSpace: persisted = 0; break;
    case FsFaultKind::kNone: return;
  }
  write_all(fd, data.data(), persisted, path);
  std::ostringstream os;
  os << "injected " << fault_kind_name(kind) << " on '" << path << "' ("
     << persisted << '/' << data.size() << " bytes persisted, op " << op
     << ')';
  throw IoError(os.str(), "fault-injection");
}

}  // namespace

DurableFile::DurableFile(std::string path, Mode mode,
                         const FaultSchedule<FsFaultKind>* faults,
                         std::uint64_t first_op)
    : path_(std::move(path)), faults_(faults), write_ops_(first_op) {
  const int flags = O_WRONLY | O_CREAT | O_CLOEXEC |
                    (mode == Mode::kTruncate ? O_TRUNC : O_APPEND);
  fd_ = ::open(path_.c_str(), flags, 0644);
  if (fd_ < 0) throw_io("cannot open", path_, errno);
}

DurableFile::~DurableFile() {
  if (fd_ >= 0) ::close(fd_);
}

void DurableFile::write(std::string_view data) {
  RSM_CHECK_MSG(fd_ >= 0, "write on closed DurableFile");
  const std::uint64_t op = write_ops_++;
  apply_injected_fault(fd_, data, op, faults_, path_);
  write_all(fd_, data.data(), data.size(), path_);
}

void DurableFile::sync() {
  RSM_CHECK_MSG(fd_ >= 0, "sync on closed DurableFile");
  if (::fsync(fd_) != 0) throw_io("fsync failed on", path_, errno);
}

void DurableFile::close() {
  if (fd_ < 0) return;
  const int rc = ::close(fd_);
  fd_ = -1;
  if (rc != 0) throw_io("close failed on", path_, errno);
}

void atomic_write_file(const std::string& path, std::string_view data,
                       const FaultSchedule<FsFaultKind>* faults,
                       std::uint64_t op) {
  const std::string temp = path + ".tmp";
  try {
    DurableFile file(temp, DurableFile::Mode::kTruncate, faults, op);
    file.write(data);
    file.sync();
    file.close();
  } catch (...) {
    ::unlink(temp.c_str());
    throw;
  }
  if (::rename(temp.c_str(), path.c_str()) != 0) {
    const int err = errno;
    ::unlink(temp.c_str());
    throw_io("rename failed onto", path, err);
  }
  // Make the rename itself durable: fsync the containing directory.
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dfd >= 0) {
    if (::fsync(dfd) != 0) {
      RSM_WARN("directory fsync failed on '" << dir << "': "
                                             << std::strerror(errno));
    }
    ::close(dfd);
  }
  obs::metrics().counter("io.atomic_writes").increment();
}

std::string read_file_bytes(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) throw_io("cannot open", path, errno);
  std::string out;
  char buffer[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd, buffer, sizeof(buffer));
    if (n < 0) {
      if (errno == EINTR) continue;
      const int err = errno;
      ::close(fd);
      throw_io("read failed on", path, err);
    }
    if (n == 0) break;
    out.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return out;
}

bool file_exists(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0;
}

}  // namespace rsm::io

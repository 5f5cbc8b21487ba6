#include "util/fs.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "util/failpoint.h"

namespace fcbench::fs {

namespace {

/// "cannot <what> <path>: <strerror>" — every fs error names the failing
/// operation, the path, and the errno text, and a full disk surfaces as
/// ResourceExhausted so callers can type their handling.
Status ErrnoStatus(const std::string& what, const std::string& path,
                   int err) {
  std::string msg = what + " " + path + ": " + std::strerror(err);
  if (err == ENOSPC) return Status::ResourceExhausted(std::move(msg));
  return Status::IoError(std::move(msg));
}

/// Writes all of `data` to `fd` at byte `offset`. Instrumented with
/// failpoint `site`: an injected error simulates pwrite(2) failing
/// (optionally after a short prefix landed — torn-write simulation), so
/// the production error path runs against a deterministic fault.
Status WriteAllAt(int fd, uint64_t offset, ByteSpan data, const char* site,
                  const std::string& path) {
  const fail::Decision inj = FCB_FAILPOINT(site);
  const size_t allow =
      inj.fire ? (inj.short_write ? data.size() / 2 : 0) : data.size();
  size_t done = 0;
  while (done < data.size()) {
    if (inj.fire && done >= allow) {
      return ErrnoStatus("cannot write", path, inj.err);
    }
    size_t want = data.size() - done;
    if (inj.fire) want = std::min(want, allow - done);
    ssize_t n = ::pwrite(fd, data.data() + done, want,
                         static_cast<off_t>(offset + done));
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("cannot write", path, errno);
    }
    done += static_cast<size_t>(n);
  }
  return Status::OK();
}

/// Source of a durable AppendFile's zero-tail writes (one tail write is
/// always shorter than kZeroTailBytes).
ByteSpan Zeros(uint64_t n) {
  static const std::vector<uint8_t> zeros(AppendFile::kZeroTailBytes, 0);
  return ByteSpan(zeros.data(), static_cast<size_t>(n));
}

}  // namespace

bool IsTempPath(const std::string& name) {
  const size_t slen = std::strlen(kTempSuffix);
  return name.size() >= slen &&
         name.compare(name.size() - slen, slen, kTempSuffix) == 0;
}

std::string DirOf(const std::string& path) {
  size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

std::string JoinPath(const std::string& dir, const std::string& name) {
  if (dir.empty()) return name;
  if (dir.back() == '/') return dir + name;
  return dir + "/" + name;
}

bool FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

Result<uint64_t> FileSize(const std::string& path) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) {
    return ErrnoStatus("cannot stat", path, errno);
  }
  return static_cast<uint64_t>(st.st_size);
}

Result<Buffer> ReadFile(const std::string& path) {
  FCB_FAIL_RETURN("fs.read", path);
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return ErrnoStatus("cannot open", path, errno);
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    Status s = ErrnoStatus("cannot stat", path, errno);
    ::close(fd);
    return s;
  }
  Buffer buf(static_cast<size_t>(st.st_size));
  size_t got = 0;
  int read_errno = 0;
  while (got < buf.size()) {
    ssize_t n = ::read(fd, buf.data() + got, buf.size() - got);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) read_errno = errno;
    if (n <= 0) break;
    got += static_cast<size_t>(n);
  }
  ::close(fd);
  if (got != buf.size()) {
    if (read_errno != 0) return ErrnoStatus("cannot read", path, read_errno);
    return Status::IoError("short read " + path + ": got " +
                           std::to_string(got) + " of " +
                           std::to_string(buf.size()) + " bytes");
  }
  return buf;
}

MappedFile& MappedFile::operator=(MappedFile&& other) noexcept {
  if (this != &other) {
    if (size_ > 0) ::munmap(const_cast<uint8_t*>(data_), size_);
    data_ = std::exchange(other.data_, nullptr);
    size_ = std::exchange(other.size_, 0);
  }
  return *this;
}

MappedFile::~MappedFile() {
  if (size_ > 0) ::munmap(const_cast<uint8_t*>(data_), size_);
}

Result<MappedFile> MapReadOnly(const std::string& path) {
  FCB_FAIL_RETURN("fs.read", path);
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return ErrnoStatus("cannot open", path, errno);
  MappedFile f;
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    Status s = ErrnoStatus("cannot stat", path, errno);
    ::close(fd);
    return s;
  }
  // mmap rejects a zero length; an empty file is an empty span.
  if (st.st_size > 0) {
    void* p = ::mmap(nullptr, static_cast<size_t>(st.st_size), PROT_READ,
                     MAP_PRIVATE, fd, 0);
    if (p == MAP_FAILED) {
      Status s = ErrnoStatus("cannot map", path, errno);
      ::close(fd);
      return s;
    }
    f.data_ = static_cast<const uint8_t*>(p);
    f.size_ = static_cast<size_t>(st.st_size);
  }
  ::close(fd);  // the mapping holds its own reference to the file
  return f;
}

Status RemoveFile(const std::string& path) {
  FCB_FAIL_RETURN("fs.remove", path);
  if (::unlink(path.c_str()) != 0 && errno != ENOENT) {
    return ErrnoStatus("cannot remove", path, errno);
  }
  return Status::OK();
}

Status RenameFile(const std::string& from, const std::string& to) {
  FCB_FAIL_RETURN("fs.rename", from);
  if (::rename(from.c_str(), to.c_str()) != 0) {
    return ErrnoStatus("cannot rename", from + " -> " + to, errno);
  }
  return Status::OK();
}

Status CreateDir(const std::string& path) {
  FCB_FAIL_RETURN("fs.mkdir", path);
  if (::mkdir(path.c_str(), 0755) != 0 && errno != EEXIST) {
    return ErrnoStatus("cannot mkdir", path, errno);
  }
  return Status::OK();
}

Result<std::vector<std::string>> ListDir(const std::string& dir) {
  FCB_FAIL_RETURN("fs.list", dir);
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return ErrnoStatus("cannot opendir", dir, errno);
  std::vector<std::string> names;
  while (struct dirent* e = ::readdir(d)) {
    std::string name = e->d_name;
    if (name == "." || name == "..") continue;
    names.push_back(std::move(name));
  }
  ::closedir(d);
  std::sort(names.begin(), names.end());
  return names;
}

Status SyncDir(const std::string& dir) {
  FCB_FAIL_RETURN("fs.sync_dir", dir);
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return ErrnoStatus("cannot open dir", dir, errno);
  int rc = ::fsync(fd);
  int err = errno;
  ::close(fd);
  if (rc != 0) return ErrnoStatus("cannot fsync dir", dir, err);
  return Status::OK();
}

Status WriteFileAtomic(const std::string& path, ByteSpan data,
                       bool durable) {
  const std::string tmp = path + kTempSuffix;
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                  0644);
  if (fd < 0) return ErrnoStatus("cannot open", tmp, errno);
  Status st = WriteAllAt(fd, 0, data, "fs.write_atomic", tmp);
  if (st.ok() && durable) {
    const fail::Decision inj = FCB_FAILPOINT("fs.sync");
    if (inj.fire) {
      st = fail::InjectedStatus("fs.sync", inj, tmp);
    } else if (::fsync(fd) != 0) {
      st = ErrnoStatus("cannot fsync", tmp, errno);
    }
  }
  if (::close(fd) != 0 && st.ok()) {
    st = ErrnoStatus("cannot close", tmp, errno);
  }
  if (st.ok()) st = RenameFile(tmp, path);
  if (!st.ok()) {
    ::unlink(tmp.c_str());
    return st;
  }
  if (durable) return SyncDir(DirOf(path));
  return Status::OK();
}

Status TruncateFile(const std::string& path, uint64_t size) {
  FCB_FAIL_RETURN("fs.truncate", path);
  int fd = ::open(path.c_str(), O_WRONLY | O_CLOEXEC);
  if (fd < 0) return ErrnoStatus("cannot open", path, errno);
  Status st;
  if (::ftruncate(fd, static_cast<off_t>(size)) != 0) {
    st = ErrnoStatus("cannot truncate", path, errno);
  } else if (::fsync(fd) != 0) {
    st = ErrnoStatus("cannot fsync", path, errno);
  }
  ::close(fd);
  return st;
}

AppendFile& AppendFile::operator=(AppendFile&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    offset_ = other.offset_;
    size_ = other.size_;
    synced_size_ = other.synced_size_;
    durable_ = other.durable_;
    dirty_ = other.dirty_;
    torn_ = other.torn_;
    path_ = std::move(other.path_);
    other.fd_ = -1;
    other.offset_ = other.size_ = other.synced_size_ = 0;
    other.dirty_ = other.torn_ = false;
  }
  return *this;
}

AppendFile::~AppendFile() { Close(); }

Result<AppendFile> AppendFile::Create(const std::string& path,
                                      bool durable) {
  FCB_FAIL_RETURN("fs.create", path);
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                  0644);
  if (fd < 0) return ErrnoStatus("cannot create", path, errno);
  if (durable) {
    Status st = SyncDir(DirOf(path));
    if (!st.ok()) {
      ::close(fd);
      return st;
    }
  }
  AppendFile f;
  f.fd_ = fd;
  f.durable_ = durable;
  f.path_ = path;
  return f;
}

Status AppendFile::Append(ByteSpan data) {
  if (fd_ < 0) return Status::Internal("append to closed file " + path_);
  Status st = WriteAllAt(fd_, offset_, data, "fs.append", path_);
  if (!st.ok()) {
    // Some prefix may have landed: bound the size so the next sync is a
    // full fsync, and leave the tail to TruncateTo.
    size_ = std::max(size_, offset_ + data.size());
    torn_ = true;
    return st;
  }
  offset_ += data.size();
  size_ = std::max(size_, offset_);
  dirty_ = true;
  return Status::OK();
}

Status AppendFile::FullSync() {
  FCB_FAIL_RETURN("fs.sync", path_);
  if (::fsync(fd_) != 0) return ErrnoStatus("cannot fsync", path_, errno);
  synced_size_ = size_;
  dirty_ = false;
  return Status::OK();
}

Status AppendFile::Sync() {
  if (fd_ < 0) return Status::Internal("sync of closed file " + path_);
  Status st;
  if (size_ == synced_size_) {
    // The size is durable and every byte written since lies inside it:
    // fdatasync flushes the data with no metadata to commit.
    const fail::Decision inj = FCB_FAILPOINT("fs.sync");
    if (inj.fire) {
      st = fail::InjectedStatus("fs.sync", inj, path_);
    } else if (::fdatasync(fd_) != 0) {
      st = ErrnoStatus("cannot fdatasync", path_, errno);
    } else {
      dirty_ = false;
    }
  } else {
    if (durable_) {
      // Extend the zero tail to the next boundary before the size
      // becomes durable, so the appends that follow stay inside it.
      const uint64_t end =
          (size_ + kZeroTailBytes - 1) / kZeroTailBytes * kZeroTailBytes;
      if (end > size_) {
        st = WriteAllAt(fd_, size_, Zeros(end - size_), "fs.preallocate",
                        path_);
        size_ = end;  // an upper bound when the write failed part-way
      }
    }
    if (st.ok()) st = FullSync();
  }
  // What reached the disk is unknown until TruncateTo heals the file.
  if (!st.ok()) torn_ = true;
  return st;
}

Status AppendFile::TruncateTo(uint64_t size) {
  if (fd_ < 0) return Status::Internal("truncate of closed file " + path_);
  FCB_FAIL_RETURN("fs.truncate", path_);
  if (::ftruncate(fd_, static_cast<off_t>(size)) != 0) {
    return ErrnoStatus("cannot truncate", path_, errno);
  }
  offset_ = size;
  size_ = size;
  dirty_ = true;
  if (durable_) FCB_RETURN_IF_ERROR(FullSync());
  torn_ = false;
  return Status::OK();
}

Status AppendFile::Close() {
  if (fd_ < 0) return Status::OK();
  Status st;
  // Seal a durable file: cut the zero tail and fsync the final appends.
  // A failure is reported — never swallowed: the caller acked those
  // bytes. A torn file is left as it is (see the header).
  if (durable_ && !torn_) {
    if (size_ != offset_) {
      st = TruncateTo(offset_);
    } else if (dirty_) {
      st = FullSync();
    }
  }
  const fail::Decision inj = FCB_FAILPOINT("fs.close");
  int rc = inj.fire ? -1 : ::close(fd_);
  int err = inj.fire ? inj.err : errno;
  if (inj.fire) ::close(fd_);  // the fd itself must not leak
  fd_ = -1;
  dirty_ = false;
  if (rc != 0 && st.ok()) st = ErrnoStatus("cannot close", path_, err);
  return st;
}

}  // namespace fcbench::fs

#ifndef FCBENCH_UTIL_FS_H_
#define FCBENCH_UTIL_FS_H_

#include <string>
#include <utility>
#include <vector>

#include "util/buffer.h"
#include "util/status.h"

namespace fcbench::fs {

/// Durable-filesystem helpers shared by every on-disk writer (PagedFile,
/// ColumnStore, the LSM ingest engine). The publish protocol for any
/// file that a manifest may reference is always the same three steps:
///   1. write the complete contents to `<path>.tmp` and fsync the file,
///   2. rename(2) `<path>.tmp` over `<path>` (atomic on POSIX),
///   3. fsync the containing directory so the rename itself is durable.
/// A crash at any byte of that sequence leaves either the old file, no
/// file, or a stale `<path>.tmp` — never a torn `<path>` — and stale
/// temp files are swept by recovery (see IsTempPath).

/// Suffix of in-flight atomic writes. Recovery deletes any file with
/// this suffix: a temp file is by definition unpublished state.
inline constexpr const char* kTempSuffix = ".tmp";

/// True when `name` (a path or a bare file name) ends in kTempSuffix.
bool IsTempPath(const std::string& name);

/// Directory part of `path`; "." when `path` has no separator.
std::string DirOf(const std::string& path);

/// `dir` + "/" + `name` (no separator doubling).
std::string JoinPath(const std::string& dir, const std::string& name);

bool FileExists(const std::string& path);
Result<uint64_t> FileSize(const std::string& path);

/// Reads the whole file into a Buffer.
Result<Buffer> ReadFile(const std::string& path);

/// A whole file mapped read-only (mmap PROT_READ, MAP_PRIVATE), unmapped
/// on destruction. The mapping keeps the file's data reachable even after
/// the path is unlinked or renamed over, so the bytes a reader sees never
/// change under it. Truncating the file in place, or writing into it, is
/// outside the contract: a reader touching a truncated page gets SIGBUS.
/// Move-only; an empty file maps as an empty span.
class MappedFile {
 public:
  MappedFile() = default;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;
  MappedFile(MappedFile&& other) noexcept { *this = std::move(other); }
  MappedFile& operator=(MappedFile&& other) noexcept;
  ~MappedFile();

  ByteSpan span() const { return ByteSpan(data_, size_); }
  size_t size() const { return size_; }

 private:
  friend Result<MappedFile> MapReadOnly(const std::string& path);

  const uint8_t* data_ = nullptr;
  size_t size_ = 0;
};

/// Maps the whole file read-only (the same "fs.read" failpoint as
/// ReadFile). Costs no heap: the page cache backs the bytes, paged in on
/// first touch.
Result<MappedFile> MapReadOnly(const std::string& path);

/// Removes `path`; OK when the file does not exist (idempotent cleanup).
Status RemoveFile(const std::string& path);

/// rename(2) `from` over `to` (atomic replacement on POSIX). The caller
/// is responsible for making the rename durable (SyncDir on the parent).
Status RenameFile(const std::string& from, const std::string& to);

/// Creates `path` (one level); OK when it already exists.
Status CreateDir(const std::string& path);

/// Names (not paths) of the entries in `dir`, sorted, "."/".." excluded.
Result<std::vector<std::string>> ListDir(const std::string& dir);

/// fsyncs a directory so previously-renamed/created entries are durable.
Status SyncDir(const std::string& dir);

/// Writes `data` to `path` with the temp-file + rename(+ fsync when
/// `durable`) publish protocol described above. Readers either see the
/// previous contents or the complete new contents, never a prefix.
Status WriteFileAtomic(const std::string& path, ByteSpan data,
                       bool durable = true);

/// Cuts `path` to its first `size` bytes and fsyncs it (WAL recovery
/// seals a torn segment with this).
Status TruncateFile(const std::string& path, uint64_t size);

/// Append-only file handle for the write-ahead log: unbuffered positional
/// writes (pwrite at offset()) with explicit Sync(). Creation truncates
/// (WAL recovery never appends to an existing, possibly torn segment; it
/// starts a new one).
///
/// Zero tail (durable files only). A Sync that has to make a new file
/// size durable first writes zeros from the end of the file up to the next
/// kZeroTailBytes boundary, then fsyncs. Later appends overwrite blocks
/// that are already allocated and written, inside a size that is already
/// durable, so their Sync is an fdatasync: it flushes the data without a
/// filesystem journal commit. A live durable file is therefore its
/// appended bytes followed by fewer than kZeroTailBytes of zeros; a reader
/// of a crashed file must treat an all-zero remainder as the end (see
/// WalReader). Close() and TruncateTo() cut the file back to offset(), so
/// a closed file carries no zero tail.
///
/// Every error Status names the failing path and carries the errno text;
/// ENOSPC surfaces as ResourceExhausted so callers can distinguish a
/// full disk (reject the batch) from a failing one (degrade/retry).
class AppendFile {
 public:
  /// A durable file's zeros reach the next multiple of this past its end.
  static constexpr uint64_t kZeroTailBytes = uint64_t(1) << 20;

  AppendFile() = default;
  AppendFile(const AppendFile&) = delete;
  AppendFile& operator=(const AppendFile&) = delete;
  AppendFile(AppendFile&& other) noexcept { *this = std::move(other); }
  AppendFile& operator=(AppendFile&& other) noexcept;
  ~AppendFile();

  /// Creates (or truncates) `path` for appending. When `durable`, the
  /// creation is made durable immediately by fsyncing the directory,
  /// Sync() keeps a zero tail, and Close() seals the file.
  static Result<AppendFile> Create(const std::string& path, bool durable);

  /// Writes all of `data` at offset(). On failure an unknown prefix of
  /// `data` may have reached the file; offset() is NOT advanced, and
  /// TruncateTo(offset()) restores the file to its last known-good length.
  Status Append(ByteSpan data);
  /// Makes everything appended so far durable: fsync when the file size
  /// changed since the last sync (after extending a durable file's zero
  /// tail; the zero write is failpoint site "fs.preallocate"), fdatasync
  /// otherwise. On failure the appends since the last Sync are in an
  /// unknown state, and TruncateTo heals the file as after a failed
  /// Append.
  Status Sync();
  /// Truncates the file back to `size` bytes (write-failure healing:
  /// discard a partially-landed append so the file is a clean prefix of
  /// successful appends again). This drops the zero tail; a durable file
  /// is then fsynced so the cut is durable before the next append.
  Status TruncateTo(uint64_t size);
  /// Closes the file. A durable file is sealed first: its zero tail is cut
  /// off and unsynced appends are fsynced, and a failure is reported
  /// instead of swallowed (the last write's durability is part of Close's
  /// contract). A file whose last Append or Sync failed and was not
  /// healed by TruncateTo is closed as it is: its tail is unknown, and
  /// recovery's prefix rule owns it.
  Status Close();

  bool is_open() const { return fd_ >= 0; }
  /// Bytes successfully appended since Create (or set by TruncateTo).
  uint64_t offset() const { return offset_; }

 private:
  /// fsync (site "fs.sync"); records size_ as durable.
  Status FullSync();

  int fd_ = -1;
  uint64_t offset_ = 0;       // logical end: the bytes appended
  uint64_t size_ = 0;         // file size: offset_ plus any zero tail
  uint64_t synced_size_ = 0;  // size_ as of the last successful fsync
  bool durable_ = false;
  bool dirty_ = false;  // appended since the last successful sync
  bool torn_ = false;   // Append/Sync failed, TruncateTo has not healed it
  std::string path_;    // for error messages
};

}  // namespace fcbench::fs

#endif  // FCBENCH_UTIL_FS_H_

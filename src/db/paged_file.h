#ifndef FCBENCH_DB_PAGED_FILE_H_
#define FCBENCH_DB_PAGED_FILE_H_

#include <algorithm>
#include <string>
#include <vector>

#include "core/compressor.h"
#include "core/format.h"
#include "util/buffer.h"
#include "util/fs.h"
#include "util/status.h"

namespace fcbench::db {

/// HDF5-style chunked dataset container (paper §5.1.2 / Figure 4).
///
/// One floating-point array is stored as a sequence of fixed-size pages
/// ("chunks" in HDF5 terms), each independently compressed by a pluggable
/// compression filter. This is the on-disk half of the simulated
/// in-memory database: the Table 10 block-size sweep and the Table 11
/// read/decode/query breakdown both run through it.
class PagedFile {
 public:
  struct Options {
    /// Page (chunk) size in bytes of raw data per page; the paper sweeps
    /// 4 KiB / 64 KiB / 8 MiB.
    size_t page_size = 64 << 10;
    /// Registry name of the compression filter ("none" = raw pages).
    std::string compressor = "none";
  };

  /// Timing breakdown of a read, matching the paper's file I/O vs. data
  /// decoding split (§6.2.2).
  struct ReadTiming {
    double io_seconds = 0;
    double decode_seconds = 0;
    /// Raw bytes actually decompressed.
    uint64_t decoded_bytes = 0;
  };

  /// Identity of the container as written — filled by Write so callers
  /// (the column-store manifest) can later re-verify the file bit for bit
  /// without trusting anything inside it.
  struct WriteInfo {
    /// xxh64 over the complete container bytes (header + pages).
    uint64_t file_hash = 0;
    /// Size of the complete container in bytes.
    uint64_t file_bytes = 0;
  };

  /// Compresses `data` page by page and publishes the container at
  /// `path` atomically and durably (temp file + fsync + rename + directory
  /// fsync). When `info` is non-null it receives the whole-file hash and
  /// size of the published container.
  static Status Write(const std::string& path, ByteSpan data,
                      const DataDesc& desc, const Options& options,
                      WriteInfo* info = nullptr);

  /// A container mapped read-only (fs::MapReadOnly) with its header and
  /// page directory validated: the unit of the one page decoder every
  /// read goes through (Read below, ColumnStore's row reads and the
  /// engines' page tasks). Pages decode independently, and DecodePage
  /// may run concurrently on one Pages from many threads: each thread
  /// decodes with its own instance of the page codec.
  ///
  /// The mapping costs no heap and is never copied: the page cache backs
  /// it, and a page's stored bytes are paged in on their first decode.
  /// An open Pages keeps serving the bytes it mapped until it is
  /// destroyed, even if its file is later removed or replaced by rename
  /// (both keep the mapped inode). Modifying or truncating the file in
  /// place is out of contract: a decode touching a truncated page gets
  /// SIGBUS. No writer in this library does either; PagedFile::Write
  /// always publishes a new file.
  class Pages {
   public:
    Pages() = default;

    /// Maps `path` (the map is timed into timing->io_seconds when
    /// non-null) and validates it. An unknown page codec is an error
    /// here, before any page is decoded.
    static Result<Pages> Open(const std::string& path,
                              ReadTiming* timing = nullptr);

    const DataDesc& desc() const { return desc_; }
    size_t num_pages() const { return page_offsets_.size() - 1; }
    /// Raw bytes of every page but the last: a whole number of
    /// elements.
    uint64_t page_bytes() const { return page_; }
    /// Raw bytes page `p` decodes to.
    uint64_t page_raw_bytes(size_t p) const {
      return std::min<uint64_t>(page_, desc_.num_bytes() - p * page_);
    }
    /// Size of the whole container on disk.
    uint64_t file_bytes() const { return file_.size(); }

    /// Appends the raw bytes of page `p` (< num_pages()) to `out`.
    /// Corruption unless the page decodes to exactly
    /// page_raw_bytes(p); `out` may then hold a partial page.
    Status DecodePage(size_t p, Buffer* out) const;

   private:
    fs::MappedFile file_;
    std::string compressor_;
    uint64_t page_ = 0;
    DataDesc desc_;
    /// Start of each page's stored bytes in file_, plus the end of the
    /// last one.
    std::vector<uint64_t> page_offsets_ = {0};
  };

  /// Reads the container back: the file map and per-page decompression
  /// are timed separately (io_seconds times the map only; paging the
  /// stored bytes in on first touch lands in decode_seconds). Returns the
  /// raw little-endian element bytes, each page decoded straight onto
  /// the end of the result. The file is mapped once; when `desc` is
  /// non-null it receives the stored array descriptor parsed from that
  /// same map.
  static Result<Buffer> Read(const std::string& path, ReadTiming* timing,
                             DataDesc* desc = nullptr);
};

}  // namespace fcbench::db

#endif  // FCBENCH_DB_PAGED_FILE_H_

#ifndef FCBENCH_DB_COLUMN_STORE_H_
#define FCBENCH_DB_COLUMN_STORE_H_

#include <span>
#include <string>
#include <vector>

#include "db/dataframe.h"
#include "db/paged_file.h"
#include "util/status.h"

namespace fcbench::db {

/// Multi-column table persisted as one PagedFile per column plus a
/// manifest — the column-store layout of the paper's takeaway for
/// database designers (§7.2: "many algorithms ... can compress 1-D
/// arrays for column-based databases without degrading compression
/// ratio"). Each column picks its own compression method, so a table can
/// mix, say, Gorilla for a slowly-drifting sensor column with
/// bitshuffle::zstd for a noisy one.
///
/// On disk:
///   <prefix>.manifest          column directory (names + resolved methods)
///   <prefix>.<index>.col       one PagedFile per column
class ColumnStore {
 public:
  /// Write-side description of one column.
  struct ColumnSpec {
    std::string name;
    /// Registry name of the compression filter ("none" = raw pages).
    /// The auto selectors ("auto", "auto-speed", "auto-ratio") are
    /// accepted: Write probes the column's own bytes through
    /// select::Selector and persists the winning *concrete* method in
    /// the manifest footer, so readers never re-run selection.
    std::string compressor = "none";
    DType dtype = DType::kFloat64;
    /// Decimal digits for BUFF's lossless bound; 0 = full precision.
    int precision_digits = 0;
    /// Values, converted to the column dtype on write.
    std::vector<double> values = {};
  };

  /// Read-side timing, aggregated over the touched columns.
  struct ReadStats {
    double io_seconds = 0;
    double decode_seconds = 0;
    uint64_t bytes_on_disk = 0;
    uint64_t bytes_decoded = 0;
  };

  /// Writes `columns` (all the same length) under `prefix`. Columns are
  /// converted and compressed in parallel on the shared pool — one task
  /// per column, so a wide table saturates the host even when every
  /// column uses a serial method.
  static Status Write(const std::string& prefix,
                      const std::vector<ColumnSpec>& columns,
                      size_t page_size = 64 << 10);

  /// Lists the column names recorded in the manifest.
  static Result<std::vector<std::string>> ListColumns(
      const std::string& prefix);

  /// Lists the per-column compression methods recorded in the manifest
  /// footer, in column order. Auto-selected columns report the concrete
  /// method the selector chose at write time (never "auto*").
  static Result<std::vector<std::string>> ListMethods(
      const std::string& prefix);

  /// Reads the named columns (projection pushdown: unrequested columns
  /// are never opened) into a DataFrame whose column order matches
  /// `names`. Empty `names` reads every column.
  static Result<DataFrame> Read(const std::string& prefix,
                                const std::vector<std::string>& names = {},
                                ReadStats* stats = nullptr);

  /// Reads rows [row_begin, row_begin + dst.size()) of one column into
  /// `dst`, decoding only the pages that overlap the range
  /// (chunk-granular pushdown for point/range queries; the rest of the
  /// column is never decompressed). Cost: one manifest read, one read of
  /// the column file, the page decode, and one copy (f64) or widening
  /// pass (f32) into `dst` — so a caller assembling many segments can
  /// decode each straight into its slice of one preallocated output. On
  /// error `dst` may be partially written.
  static Status ReadRowsInto(const std::string& prefix,
                             const std::string& column, uint64_t row_begin,
                             std::span<double> dst,
                             ReadStats* stats = nullptr);

  /// ReadRowsInto into a vector of `row_count` values, allocated once
  /// the range has been checked against the stored column.
  static Result<std::vector<double>> ReadRows(const std::string& prefix,
                                              const std::string& column,
                                              uint64_t row_begin,
                                              uint64_t row_count,
                                              ReadStats* stats = nullptr);

  /// Re-verifies the table's integrity from disk: the manifest checksum,
  /// and — for manifests that record them (v3+) — every column file's
  /// size and whole-file xxh64 against the values captured at write
  /// time. A mismatch returns Corruption naming the first bad file; a
  /// missing file returns the underlying IO error. This is the scrub
  /// primitive: it detects any bit flip anywhere in the table, including
  /// in pages an ordinary decode would accept (e.g. "none"-compressed
  /// columns have no other checksum).
  static Status Verify(const std::string& prefix);

  /// Removes all files written under `prefix`.
  static Status Drop(const std::string& prefix);
};

}  // namespace fcbench::db

#endif  // FCBENCH_DB_COLUMN_STORE_H_

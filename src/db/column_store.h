#ifndef FCBENCH_DB_COLUMN_STORE_H_
#define FCBENCH_DB_COLUMN_STORE_H_

#include <atomic>
#include <functional>
#include <memory>
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
  /// column uses a serial method. When `table_bytes` is non-null it
  /// receives the size of every file written: column files and manifest.
  static Status Write(const std::string& prefix,
                      const std::vector<ColumnSpec>& columns,
                      size_t page_size = 64 << 10,
                      uint64_t* table_bytes = nullptr);

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

  /// Reads rows [row_begin, row_begin + row_count) of one column,
  /// decoding only the pages that overlap the range (chunk-granular
  /// pushdown for point/range queries; the rest of the column is never
  /// decompressed). Cost: one manifest read, one map of the column file,
  /// then each touched page decoded into the calling thread's page
  /// scratch and copied (f64) or widened (f32) into its rows of the
  /// result, which is allocated only once the range has been checked
  /// against the stored column (OutOfRange past its end).
  /// `stats->decode_seconds` covers decode and copy.
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

/// One column of a published ColumnStore table, opened by its first read
/// and then kept open (a mapped PagedFile::Pages) until the slot is
/// destroyed. A published table never changes, so every later read
/// reuses the open column and only decodes pages. An engine's segment
/// handle owns one slot per schema column.
///
/// No lock is held across an open: two racing first opens may both
/// open, the first to publish wins and the loser's mapping is dropped.
/// A failed open publishes nothing, so the next read tries again.
class ColumnSlot {
 public:
  /// The column named `column` of the table at `prefix`, which must hold
  /// `rows` rows.
  ColumnSlot(std::string prefix, std::string column, uint64_t rows);
  ~ColumnSlot();
  ColumnSlot(const ColumnSlot&) = delete;
  ColumnSlot& operator=(const ColumnSlot&) = delete;

  uint64_t rows() const { return rows_; }

  /// The open column, or null until an Open succeeded.
  const PagedFile::Pages* pages() const {
    return pages_.load(std::memory_order_acquire);
  }

  /// Reads the table's manifest, maps and validates the column file and
  /// checks that it holds rows(), then publishes it unless a racing Open
  /// published first. Returns the published column.
  Result<const PagedFile::Pages*> Open() const;

 private:
  const std::string prefix_;
  const std::string column_;
  const uint64_t rows_;
  mutable std::atomic<const PagedFile::Pages*> pages_{nullptr};
};

/// Column reads assembled from many tables (an engine's segments) as one
/// flat list of page tasks on ThreadPool::Shared():
///
///  - Phase 1 opens the queued tables whose slot no earlier read opened
///    (ColumnSlot::Open) and allocates the outputs, as one ParallelFor.
///    When every slot is open already, it only allocates the outputs,
///    inline, and phase 2 is the read's only pool round.
///  - Phase 2 is one ParallelFor over every page of every table, plus
///    the queued fills. A page task decodes its page into the thread's
///    page scratch and copies or widens it straight into its rows of the
///    output. No table is ever decoded whole into a buffer of its own.
///
/// Called from inside a pool task, both phases run inline (ParallelFor's
/// contract), so a compaction on a pool worker reads through the same
/// path serially.
class ColumnReadBatch {
 public:
  /// Queues an output of `rows` values and returns its index; Run
  /// reports one status per output.
  size_t AddOutput(uint64_t rows);

  /// Queues every row of `column` into rows [offset, offset +
  /// column->rows()) of output `output`. The batch holds `column` until
  /// it is destroyed; an engine passes an aliasing pointer that owns the
  /// segment handle, which keeps the table's files alive.
  void AddTable(size_t output, uint64_t offset,
                std::shared_ptr<const ColumnSlot> column);

  /// Queues `fill`, run in phase 2 on rows [offset, offset + rows) of
  /// output `output` (say, an engine's memtable rows).
  void AddFill(size_t output, uint64_t offset, uint64_t rows,
               std::function<void(std::span<double>)> fill);

  /// Runs both phases once. Returns one status per output: OK, or the
  /// first failure among its tables in queue order (a table that fails
  /// to open, else its lowest failing page). Every table is read even
  /// when another fails.
  std::vector<Status> Run();

  /// Output `i`'s values; complete when Run reported it OK.
  std::vector<double>& output(size_t i) { return outputs_[i].values; }

 private:
  struct Output {
    uint64_t rows = 0;
    std::vector<double> values;
  };
  struct Table {
    size_t output = 0;
    uint64_t offset = 0;
    std::shared_ptr<const ColumnSlot> column;
    const PagedFile::Pages* file = nullptr;  // open after phase 1
    Status status;                           // phase 1's verdict
  };
  struct Fill {
    size_t output = 0;
    uint64_t offset = 0;
    uint64_t rows = 0;
    std::function<void(std::span<double>)> fn;
  };

  std::vector<Output> outputs_;
  std::vector<Table> tables_;
  std::vector<Fill> fills_;
};

}  // namespace fcbench::db

#endif  // FCBENCH_DB_COLUMN_STORE_H_

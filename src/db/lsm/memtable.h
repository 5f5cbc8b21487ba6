#ifndef FCBENCH_DB_LSM_MEMTABLE_H_
#define FCBENCH_DB_LSM_MEMTABLE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace fcbench::db::lsm {

/// In-memory per-column write buffer of the LSM ingest engine: rows
/// arrive row-major (one value per schema column) and are scattered into
/// per-column vectors, so a flush hands each column to the compressor as
/// one contiguous 1-D array — the layout every studied method wants
/// (paper §7.2). Values are held as f64; narrowing to an f32 column
/// happens once, at flush/read time, so WAL replay and live appends
/// agree bit-for-bit.
///
/// Columns grow geometrically, so an append costs amortized O(batch),
/// not O(memtable): a column is reallocated and copied only when it runs
/// out of capacity, and each reallocation doubles that capacity.
///
/// Clear() empties the table but keeps that capacity, so the engine
/// recycles a flushed memtable instead of allocating a new one: when the
/// last reference to its immutable memtable drops (the flush's, or a
/// reader's), the table is cleared and parked as the engine's one spare,
/// and the next memtable swap takes it. Its columns are then already
/// grown and faulted in, so refilling it copies each row once and grows
/// nothing. An engine holds at most one spare. Its heap, up to about 2x
/// EngineOptions::memtable_bytes, is not charged to admission control
/// (bytes() is 0 while it waits) and is freed on Close; a memtable
/// whose last reference drops after Close is freed, not parked.
///
/// Not thread-safe; the engine serializes access under its mutex.
class MemTable {
 public:
  explicit MemTable(size_t num_columns);

  /// Appends `nrows` rows stored row-major at `rows` (nrows * columns
  /// doubles).
  void AppendRows(const double* rows, size_t nrows);

  size_t num_columns() const { return cols_.size(); }
  size_t rows() const { return rows_; }
  bool empty() const { return rows_ == 0; }

  /// Logical size of the buffered values (rows * columns * 8), compared
  /// against the engine's memtable watermark. Admission control charges
  /// these logical bytes; the heap capacity behind them may reach up to
  /// 2x this under geometric growth.
  size_t bytes() const { return rows_ * cols_.size() * sizeof(double); }

  /// Drops every row and keeps each column's capacity.
  void Clear();

  const std::vector<double>& column(size_t i) const { return cols_[i]; }
  /// Moves column `i` out (flush path; the memtable is discarded after).
  std::vector<double> TakeColumn(size_t i) { return std::move(cols_[i]); }

 private:
  std::vector<std::vector<double>> cols_;
  size_t rows_ = 0;
};

}  // namespace fcbench::db::lsm

#endif  // FCBENCH_DB_LSM_MEMTABLE_H_

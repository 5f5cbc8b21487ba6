#include "db/lsm/memtable.h"

namespace fcbench::db::lsm {

MemTable::MemTable(size_t num_columns) : cols_(num_columns) {}

void MemTable::AppendRows(const double* rows, size_t nrows) {
  const size_t ncols = cols_.size();
  for (size_t c = 0; c < ncols; ++c) {
    // resize() grows capacity geometrically, so the memtable is copied
    // O(log n) times over its life instead of once per batch.
    std::vector<double>& col = cols_[c];
    col.resize(rows_ + nrows);
    double* dst = col.data() + rows_;
    const double* src = rows + c;
    for (size_t r = 0; r < nrows; ++r) dst[r] = src[r * ncols];
  }
  rows_ += nrows;
}

void MemTable::Clear() {
  for (std::vector<double>& col : cols_) col.clear();
  rows_ = 0;
}

}  // namespace fcbench::db::lsm

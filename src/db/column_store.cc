#include "db/column_store.h"

#include <algorithm>
#include <cstring>

#include "obs/span.h"
#include "select/auto_compressor.h"
#include "select/selector.h"
#include "util/bitio.h"
#include "util/failpoint.h"
#include "util/fs.h"
#include "util/hash.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace fcbench::db {

namespace {

constexpr uint32_t kManifestMagic = 0x534D4346u;  // "FCMS"
/// Manifest layout version: v2 added the per-column resolved-method
/// footer entries (the online selector's choices must be persisted, or
/// a reader could not name what compressed each column); v3 added each
/// column file's size and whole-file xxh64, captured at write time, so
/// Verify can re-check the table bit for bit without trusting the files.
/// v2 manifests are still readable (they just cannot be hash-verified).
constexpr uint64_t kManifestVersion = 3;
constexpr uint64_t kMinManifestVersion = 2;

std::string ColumnPath(const std::string& prefix, size_t index) {
  return prefix + "." + std::to_string(index) + ".col";
}

std::string ManifestPath(const std::string& prefix) {
  return prefix + ".manifest";
}

struct Manifest {
  std::vector<std::string> names;
  std::vector<std::string> methods;     // resolved; parallel to names
  std::vector<uint64_t> file_hashes;    // v3+: whole-file xxh64 per column
  std::vector<uint64_t> file_bytes;     // v3+: container size per column
  bool has_integrity = false;           // false for v2 manifests
};

Result<Manifest> ReadManifest(const std::string& prefix) {
  FCB_ASSIGN_OR_RETURN(Buffer raw, fs::ReadFile(ManifestPath(prefix)));
  ByteSpan in = raw.span();
  size_t off = 0;
  uint32_t magic = 0;
  uint64_t version = 0, ncols = 0, hash = 0;
  if (!GetFixed(in, &off, &magic) || magic != kManifestMagic ||
      !GetVarint64(in, &off, &version) || version < kMinManifestVersion ||
      version > kManifestVersion || !GetVarint64(in, &off, &ncols) ||
      ncols > 4096) {
    return Status::Corruption("column_store: bad manifest header");
  }
  Manifest m;
  m.has_integrity = version >= 3;
  auto read_string = [&](size_t max_len, std::string* out) {
    uint64_t len = 0;
    if (!GetVarint64(in, &off, &len) || len > max_len ||
        len > in.size() - off) {
      return false;
    }
    out->assign(reinterpret_cast<const char*>(in.data() + off), len);
    off += len;
    return true;
  };
  for (uint64_t c = 0; c < ncols; ++c) {
    std::string name, method;
    if (!read_string(256, &name) || !read_string(64, &method)) {
      return Status::Corruption("column_store: bad column entry");
    }
    uint64_t fhash = 0, fbytes = 0;
    if (m.has_integrity &&
        (!GetFixed(in, &off, &fhash) || !GetVarint64(in, &off, &fbytes))) {
      return Status::Corruption("column_store: bad column entry");
    }
    m.names.push_back(std::move(name));
    m.methods.push_back(std::move(method));
    m.file_hashes.push_back(fhash);
    m.file_bytes.push_back(fbytes);
  }
  if (!GetFixed(in, &off, &hash) ||
      hash != XxHash64(in.subspan(0, off - sizeof(uint64_t)))) {
    return Status::Corruption("column_store: manifest checksum mismatch");
  }
  return m;
}

/// Widens `dst.size()` stored little-endian elements at `src` into `dst`
/// (f64 is a plain copy).
void ToDoubles(const uint8_t* src, DType dtype, std::span<double> dst) {
  if (dst.empty()) return;
  if (dtype == DType::kFloat32) {
    const float* f = reinterpret_cast<const float*>(src);
    for (size_t r = 0; r < dst.size(); ++r) dst[r] = f[r];
  } else {
    std::memcpy(dst.data(), src, dst.size() * sizeof(double));
  }
}

uint64_t StoredRows(const PagedFile::Pages& file) {
  return file.desc().num_bytes() / DTypeSize(file.desc().dtype);
}

/// The first half of every row read: one manifest read, then one map
/// and validation of the column file, which must hold rows
/// [row_begin, row_begin + row_count).
Result<PagedFile::Pages> OpenRows(const std::string& prefix,
                                  const std::string& column,
                                  uint64_t row_begin, uint64_t row_count,
                                  PagedFile::ReadTiming* timing) {
  FCB_ASSIGN_OR_RETURN(Manifest m, ReadManifest(prefix));
  size_t idx = m.names.size();
  for (size_t i = 0; i < m.names.size(); ++i) {
    if (m.names[i] == column) {
      idx = i;
      break;
    }
  }
  if (idx == m.names.size()) {
    return Status::InvalidArgument("column_store: no column '" + column +
                                   "'");
  }
  FCB_ASSIGN_OR_RETURN(PagedFile::Pages file,
                       PagedFile::Pages::Open(ColumnPath(prefix, idx), timing));
  const uint64_t rows = StoredRows(file);
  if (row_begin > rows || row_count > rows - row_begin) {
    return Status::OutOfRange("column_store: rows past end of column '" +
                              column + "'");
  }
  return file;
}

/// The second half: rows [row_begin, row_begin + dst.size()) of `file`
/// into `dst`, each touched page decoded into the calling thread's page
/// scratch and copied or widened into its rows. With `stats`, adds the
/// decode time, the raw bytes of the touched pages and the file size.
Status DecodeRows(const PagedFile::Pages& file, uint64_t row_begin,
                  std::span<double> dst,
                  ColumnStore::ReadStats* stats = nullptr) {
  thread_local Buffer page;
  Timer decode_timer;
  const DType dtype = file.desc().dtype;
  const uint64_t esize = DTypeSize(dtype);
  const uint64_t page_rows = file.page_bytes() / esize;
  uint64_t decoded = 0;
  size_t done = 0;
  while (done < dst.size()) {
    const uint64_t row = row_begin + done;
    const size_t p = static_cast<size_t>(row / page_rows);
    page.Clear();
    FCB_RETURN_IF_ERROR(file.DecodePage(p, &page));
    decoded += page.size();
    const uint64_t in_page = row - p * page_rows;
    const size_t n = static_cast<size_t>(std::min<uint64_t>(
        dst.size() - done, page.size() / esize - in_page));
    ToDoubles(page.data() + in_page * esize, dtype, dst.subspan(done, n));
    done += n;
  }
  if (stats != nullptr) {
    stats->decode_seconds += decode_timer.ElapsedSeconds();
    stats->bytes_decoded += decoded;  // whole touched pages
    stats->bytes_on_disk += file.file_bytes();
  }
  return Status::OK();
}

}  // namespace

Status ColumnStore::Write(const std::string& prefix,
                          const std::vector<ColumnSpec>& columns,
                          size_t page_size, uint64_t* table_bytes) {
  if (columns.empty()) {
    return Status::InvalidArgument("column_store: no columns");
  }
  const size_t rows = columns[0].values.size();
  for (const auto& c : columns) {
    if (c.values.size() != rows) {
      return Status::InvalidArgument("column_store: ragged columns");
    }
    if (c.name.empty() || c.name.size() > 256) {
      return Status::InvalidArgument("column_store: bad column name");
    }
  }

  // One task per column: dtype conversion, method selection, page
  // compression, and file write all run in parallel on the shared pool.
  // Columns touch disjoint files and disjoint result slots, and each
  // auto column gets its own Selector, so task order cannot influence
  // any outcome.
  std::vector<Status> stats(columns.size());
  std::vector<std::string> resolved(columns.size());
  std::vector<PagedFile::WriteInfo> infos(columns.size());
  ThreadPool::Shared().ParallelFor(
      columns.size(),
      [&](size_t i) {
        obs::ScopedSpan col_span("segment.column", i, rows);
        const fail::Decision inj = FCB_FAILPOINT("segment.column");
        if (inj.fire) {
          stats[i] = fail::InjectedStatus("segment.column", inj,
                                          ColumnPath(prefix, i));
          return;
        }
        const ColumnSpec& c = columns[i];
        DataDesc desc;
        desc.dtype = c.dtype;
        desc.extent = {rows};
        desc.precision_digits = c.precision_digits;

        // f64 columns compress straight from the caller's values; only
        // f32 columns are staged, to narrow them.
        ByteSpan bytes = AsBytes(c.values);
        Buffer narrowed;
        if (c.dtype == DType::kFloat32) {
          narrowed = Buffer(rows * sizeof(float));
          float* dst = reinterpret_cast<float*>(narrowed.data());
          for (size_t r = 0; r < rows; ++r) {
            dst[r] = static_cast<float>(c.values[r]);
          }
          bytes = narrowed.span();
        }

        // Online per-column selection: probe the column's own bytes and
        // persist the concrete winner, so the choice is made once at
        // write time and the manifest names a plain decodable method.
        resolved[i] = c.compressor;
        Objective objective;
        if (select::ParseAutoMethod(c.compressor, &objective)) {
          select::Selector::Config sel_cfg;
          sel_cfg.objective = objective;
          select::Selector selector(sel_cfg);
          resolved[i] = selector.Choose(bytes, desc).method;
        }

        PagedFile::Options opt;
        opt.page_size = page_size;
        opt.compressor = resolved[i];
        stats[i] = PagedFile::Write(ColumnPath(prefix, i), bytes,
                                    desc, opt, &infos[i]);
      },
      {/*grain=*/1});
  for (const auto& st : stats) FCB_RETURN_IF_ERROR(st);

  obs::ScopedSpan publish_span("segment.publish", columns.size(), rows);
  FCB_FAIL_RETURN("segment.publish", ManifestPath(prefix));
  Buffer manifest;
  PutFixed(&manifest, kManifestMagic);
  PutVarint64(&manifest, kManifestVersion);
  PutVarint64(&manifest, columns.size());
  for (size_t i = 0; i < columns.size(); ++i) {
    PutVarint64(&manifest, columns[i].name.size());
    manifest.Append(columns[i].name.data(), columns[i].name.size());
    PutVarint64(&manifest, resolved[i].size());
    manifest.Append(resolved[i].data(), resolved[i].size());
    PutFixed(&manifest, infos[i].file_hash);
    PutVarint64(&manifest, infos[i].file_bytes);
  }
  PutFixed(&manifest, XxHash64(manifest.span()));
  // The manifest is published last, atomically, and only after every
  // column file it names is durably on disk (PagedFile::Write is
  // temp-file + rename + fsync): a crash anywhere in Write leaves either
  // the previous table or the complete new one — never a manifest
  // pointing at missing or torn column files.
  FCB_RETURN_IF_ERROR(fs::WriteFileAtomic(ManifestPath(prefix),
                                          manifest.span()));
  if (table_bytes != nullptr) {
    *table_bytes = manifest.size();
    for (const auto& info : infos) *table_bytes += info.file_bytes;
  }
  return Status::OK();
}

Result<std::vector<std::string>> ColumnStore::ListColumns(
    const std::string& prefix) {
  FCB_ASSIGN_OR_RETURN(Manifest m, ReadManifest(prefix));
  return m.names;
}

Result<std::vector<std::string>> ColumnStore::ListMethods(
    const std::string& prefix) {
  FCB_ASSIGN_OR_RETURN(Manifest m, ReadManifest(prefix));
  return m.methods;
}

Result<DataFrame> ColumnStore::Read(const std::string& prefix,
                                    const std::vector<std::string>& names,
                                    ReadStats* stats) {
  FCB_ASSIGN_OR_RETURN(Manifest m, ReadManifest(prefix));

  std::vector<size_t> wanted;
  if (names.empty()) {
    for (size_t i = 0; i < m.names.size(); ++i) wanted.push_back(i);
  } else {
    for (const auto& n : names) {
      size_t idx = m.names.size();
      for (size_t i = 0; i < m.names.size(); ++i) {
        if (m.names[i] == n) {
          idx = i;
          break;
        }
      }
      if (idx == m.names.size()) {
        return Status::InvalidArgument("column_store: no column '" + n +
                                       "'");
      }
      wanted.push_back(idx);
    }
  }

  std::vector<std::string> out_names;
  std::vector<std::vector<double>> out_cols;
  for (size_t idx : wanted) {
    const std::string path = ColumnPath(prefix, idx);
    PagedFile::ReadTiming timing;
    DataDesc desc;
    FCB_ASSIGN_OR_RETURN(Buffer bytes, PagedFile::Read(path, &timing, &desc));
    if (stats != nullptr) {
      stats->io_seconds += timing.io_seconds;
      stats->decode_seconds += timing.decode_seconds;
      stats->bytes_decoded += bytes.size();
      auto size = fs::FileSize(path);
      if (size.ok()) stats->bytes_on_disk += size.value();
    }

    std::vector<double> col(bytes.size() / DTypeSize(desc.dtype));
    ToDoubles(bytes.data(), desc.dtype, col);
    out_names.push_back(m.names[idx]);
    out_cols.push_back(std::move(col));
  }
  return DataFrame::FromColumns(std::move(out_names), std::move(out_cols));
}

Result<std::vector<double>> ColumnStore::ReadRows(const std::string& prefix,
                                                  const std::string& column,
                                                  uint64_t row_begin,
                                                  uint64_t row_count,
                                                  ReadStats* stats) {
  // The vector is sized only after the range has been checked against
  // the stored column.
  PagedFile::ReadTiming timing;
  FCB_ASSIGN_OR_RETURN(
      PagedFile::Pages file,
      OpenRows(prefix, column, row_begin, row_count, &timing));
  std::vector<double> out(row_count);
  FCB_RETURN_IF_ERROR(DecodeRows(file, row_begin, out, stats));
  if (stats != nullptr) stats->io_seconds += timing.io_seconds;
  return out;
}

Status ColumnStore::Verify(const std::string& prefix) {
  // ReadManifest already validates the manifest's own checksum.
  FCB_ASSIGN_OR_RETURN(Manifest m, ReadManifest(prefix));
  for (size_t i = 0; i < m.names.size(); ++i) {
    const std::string path = ColumnPath(prefix, i);
    if (m.has_integrity) {
      // Whole-file comparison against the identity captured at write
      // time: catches every bit flip, including ones a decode would
      // silently accept.
      FCB_ASSIGN_OR_RETURN(Buffer raw, fs::ReadFile(path));
      if (raw.size() != m.file_bytes[i]) {
        return Status::Corruption(
            "column_store: " + path + " is " + std::to_string(raw.size()) +
            " bytes, manifest records " + std::to_string(m.file_bytes[i]));
      }
      if (XxHash64(raw.span()) != m.file_hashes[i]) {
        return Status::Corruption("column_store: " + path +
                                  " fails whole-file checksum (column '" +
                                  m.names[i] + "')");
      }
    } else {
      // v2 manifest: no recorded hash; fall back to a structural decode,
      // which still catches truncation and most header/page damage.
      FCB_RETURN_IF_ERROR(PagedFile::Read(path, nullptr).status());
    }
  }
  return Status::OK();
}

Status ColumnStore::Drop(const std::string& prefix) {
  auto m = ReadManifest(prefix);
  if (m.ok()) {
    for (size_t i = 0; i < m.value().names.size(); ++i) {
      fs::RemoveFile(ColumnPath(prefix, i));
      fs::RemoveFile(ColumnPath(prefix, i) + fs::kTempSuffix);
    }
  }
  fs::RemoveFile(ManifestPath(prefix) + fs::kTempSuffix);
  return fs::RemoveFile(ManifestPath(prefix));
}

ColumnSlot::ColumnSlot(std::string prefix, std::string column, uint64_t rows)
    : prefix_(std::move(prefix)), column_(std::move(column)), rows_(rows) {}

ColumnSlot::~ColumnSlot() { delete pages_.load(std::memory_order_acquire); }

Result<const PagedFile::Pages*> ColumnSlot::Open() const {
  FCB_ASSIGN_OR_RETURN(PagedFile::Pages file,
                       OpenRows(prefix_, column_, 0, rows_, nullptr));
  auto opened = std::make_unique<const PagedFile::Pages>(std::move(file));
  const PagedFile::Pages* published = nullptr;
  if (pages_.compare_exchange_strong(published, opened.get(),
                                     std::memory_order_acq_rel,
                                     std::memory_order_acquire)) {
    return opened.release();
  }
  return published;  // a racing Open won; ours is unmapped here
}

size_t ColumnReadBatch::AddOutput(uint64_t rows) {
  outputs_.push_back({rows, {}});
  return outputs_.size() - 1;
}

void ColumnReadBatch::AddTable(size_t output, uint64_t offset,
                               std::shared_ptr<const ColumnSlot> column) {
  Table t;
  t.output = output;
  t.offset = offset;
  t.column = std::move(column);
  tables_.push_back(std::move(t));
}

void ColumnReadBatch::AddFill(size_t output, uint64_t offset, uint64_t rows,
                              std::function<void(std::span<double>)> fill) {
  fills_.push_back({output, offset, rows, std::move(fill)});
}

std::vector<Status> ColumnReadBatch::Run() {
  ThreadPool& pool = ThreadPool::Shared();
  // Phase 1: allocate the outputs and open the tables no earlier read
  // opened. With every table open already, the outputs are allocated
  // inline and the page tasks are the read's only pool round.
  std::vector<size_t> to_open;
  for (size_t t = 0; t < tables_.size(); ++t) {
    tables_[t].file = tables_[t].column->pages();
    if (tables_[t].file == nullptr) to_open.push_back(t);
  }
  auto phase1 = [&](size_t i) {
    if (i < outputs_.size()) {
      outputs_[i].values.resize(outputs_[i].rows);
      return;
    }
    Table& t = tables_[to_open[i - outputs_.size()]];
    obs::ScopedSpan span("segment.open", t.column->rows());
    auto r = t.column->Open();
    if (r.ok()) {
      t.file = r.value();
    } else {
      t.status = r.status();
    }
  };
  if (to_open.empty()) {
    for (size_t i = 0; i < outputs_.size(); ++i) phase1(i);
  } else {
    pool.ParallelFor(outputs_.size() + to_open.size(), phase1,
                     {/*grain=*/1});
  }

  // Phase 2: every page of every opened table, then the fills.
  struct PageTask {
    size_t table;
    uint64_t row;  // first row of the page within its table
    size_t rows;
  };
  std::vector<PageTask> pages;
  std::vector<size_t> first_page(tables_.size() + 1, 0);
  for (size_t t = 0; t < tables_.size(); ++t) {
    first_page[t] = pages.size();
    if (!tables_[t].status.ok()) continue;
    const PagedFile::Pages& file = *tables_[t].file;
    const uint64_t rows = tables_[t].column->rows();
    const uint64_t page_rows =
        file.page_bytes() / DTypeSize(file.desc().dtype);
    for (uint64_t row = 0; row < rows; row += page_rows) {
      pages.push_back(
          {t, row, static_cast<size_t>(std::min(page_rows, rows - row))});
    }
  }
  first_page[tables_.size()] = pages.size();
  std::vector<Status> page_status(pages.size());
  pool.ParallelFor(
      pages.size() + fills_.size(),
      [&](size_t i) {
        if (i >= pages.size()) {
          const Fill& f = fills_[i - pages.size()];
          f.fn(std::span<double>(outputs_[f.output].values)
                   .subspan(f.offset, f.rows));
          return;
        }
        const PageTask& pt = pages[i];
        const Table& t = tables_[pt.table];
        obs::ScopedSpan span("segment.page", pt.row, pt.rows);
        page_status[i] = DecodeRows(
            *t.file, pt.row,
            std::span<double>(outputs_[t.output].values)
                .subspan(t.offset + pt.row, pt.rows));
      },
      {/*grain=*/1});

  std::vector<Status> status(outputs_.size());
  for (size_t t = 0; t < tables_.size(); ++t) {
    Status& out = status[tables_[t].output];
    if (!out.ok()) continue;
    out = tables_[t].status;
    for (size_t i = first_page[t]; i < first_page[t + 1] && out.ok(); ++i) {
      out = page_status[i];
    }
  }
  return status;
}

}  // namespace fcbench::db

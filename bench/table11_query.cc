// Table 11: read + decode + query time (ms) on the TPC datasets through
// the simulated in-memory database: compressed pages on disk -> file I/O
// -> per-page decompression -> columnar dataframe -> 10 full-table-scan
// queries driven by a histogram of the first column (paper §6.2.2,
// footnote 14). The file is mapped, not copied, so the read column times
// the map and paging the stored bytes in counts as decode.

#include <cstdio>
#include <string>

#include "bench_common.h"
#include "db/dataframe.h"
#include "db/paged_file.h"
#include "util/timer.h"

namespace fcbench::bench {
namespace {

int Main() {
  Banner("Table 11 - read and query time", "paper §6.2.2 Obs. 9");
  // Paper's Table 11 method columns.
  const std::vector<std::string> methods = {
      "pfpc",    "spdp",      "fpzip",   "bitshuffle_lz4",
      "bitshuffle_zstd", "ndzip_cpu", "gorilla", "chimp128",
      "gfc",     "mpc",       "ndzip_gpu"};

  std::vector<std::string> headers = {"dataset"};
  for (const auto& m : methods) headers.push_back(m.substr(0, 9));
  headers.push_back("query");
  TablePrinter t(headers, 11, 15);

  std::string tmpdir = "/tmp";
  for (const auto& info : data::AllDatasets()) {
    if (info.domain != data::Domain::kDatabase) continue;
    auto ds = data::GenerateDataset(info, BenchBytes());
    if (!ds.ok()) continue;

    std::vector<std::string> row = {info.name};
    double query_ms = 0;
    for (const auto& m : methods) {
      db::PagedFile::Options opt;
      opt.compressor = m;
      opt.page_size = 64 << 10;
      std::string path = tmpdir + "/fcbench_t11_" + info.name + "_" + m;
      Status ws = db::PagedFile::Write(path, ds.value().bytes.span(),
                                       ds.value().desc, opt);
      if (!ws.ok()) {
        row.push_back("-");
        continue;
      }
      db::PagedFile::ReadTiming timing;
      auto bytes = db::PagedFile::Read(path, &timing);
      std::remove(path.c_str());
      if (!bytes.ok()) {
        row.push_back("-");
        continue;
      }
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.1f+%.1f",
                    timing.io_seconds * 1e3, timing.decode_seconds * 1e3);
      row.push_back(buf);

      if (query_ms == 0) {  // query time identical across methods
        auto df = db::DataFrame::FromBytes(bytes.value().span(),
                                           ds.value().desc);
        if (df.ok()) {
          auto edges = df.value().HistogramEdges(0, 10);
          Timer timer;
          uint64_t sink = 0;
          for (double e : edges) sink += df.value().CountLessEqual(0, e);
          query_ms = timer.ElapsedSeconds() * 1e3 / edges.size();
          if (sink == 0) query_ms += 0;  // keep the scan alive
        }
      }
    }
    char qbuf[32];
    std::snprintf(qbuf, sizeof(qbuf), "%.2f", query_ms);
    row.push_back(qbuf);
    t.AddRow(row);
  }
  t.Print();

  std::printf("\nCells are io_ms+decode_ms per method; 'query' is one "
              "full-table scan on the decoded dataframe (identical for "
              "all methods).\n");
  std::printf("Shape check vs. paper: read overhead follows each method's "
              "DT and CR; dictionary/transform methods (bitshuffle) decode "
              "fastest among CPU methods; end-to-end time, not kernel "
              "time, decides the ranking (Obs. 9).\n");
  return 0;
}

}  // namespace
}  // namespace fcbench::bench

int main() { return fcbench::bench::Main(); }

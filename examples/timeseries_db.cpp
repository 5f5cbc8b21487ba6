// Time-series database scenario (the Gorilla/Chimp motivation): sensor
// streams are compressed into a paged store; range queries read pages,
// decode, and scan. Also demonstrates BUFF's signature trick — predicate
// evaluation directly on the compressed sub-columns, no decode.

#include <cstdio>
#include <string>
#include <vector>

#include "compressors/buff.h"
#include "compressors/timeseries_block.h"
#include "core/compressor.h"
#include "data/dataset.h"
#include "db/dataframe.h"
#include "db/paged_file.h"
#include "util/fs.h"
#include "util/rng.h"
#include "util/timer.h"

using namespace fcbench;

int main() {
  // Generate a realistic multi-column sensor stream (phone gyroscope
  // character: 3 columns of quantized random-walk readings).
  auto ds = data::GenerateDataset(*data::FindDataset("phone-gyro"),
                                  4ull << 20);
  if (!ds.ok()) {
    std::printf("dataset: %s\n", ds.status().ToString().c_str());
    return 1;
  }
  std::printf("sensor stream: %s, %llu readings\n",
              ds.value().desc.ToString().c_str(),
              static_cast<unsigned long long>(ds.value().num_elements()));

  // Store with Gorilla vs Chimp page compression, then time the
  // read->decode->scan path of each.
  for (const char* method : {"gorilla", "chimp128"}) {
    std::string path = std::string("/tmp/fcbench_tsdb_") + method;
    db::PagedFile::Options opt;
    opt.compressor = method;
    opt.page_size = 64 << 10;
    Status st = db::PagedFile::Write(path, ds.value().bytes.span(),
                                     ds.value().desc, opt);
    if (!st.ok()) {
      std::printf("%s write: %s\n", method, st.ToString().c_str());
      return 1;
    }
    auto size = fs::FileSize(path).value();

    db::PagedFile::ReadTiming timing;
    auto bytes = db::PagedFile::Read(path, &timing);
    if (!bytes.ok()) return 1;
    auto df = db::DataFrame::FromBytes(bytes.value().span(), ds.value().desc)
                  .TakeValue();
    Timer timer;
    uint64_t hits = df.CountLessEqual(0, 0.0);
    double scan_ms = timer.ElapsedSeconds() * 1e3;

    std::printf("%-10s file %7.2f KB (ratio %.3f)  io %.2f ms  decode %.2f "
                "ms  scan %.2f ms  (%llu readings below 0)\n",
                method, size / 1e3,
                static_cast<double>(ds.value().bytes.size()) / size,
                timing.io_seconds * 1e3, timing.decode_seconds * 1e3,
                scan_ms, static_cast<unsigned long long>(hits));
    std::remove(path.c_str());
  }

  // BUFF: query the compressed representation directly.
  std::printf("\nBUFF sub-column scan (no decode):\n");
  auto buff = CompressorRegistry::Global().Create("buff").TakeValue();
  Buffer compressed;
  Status st =
      buff->Compress(ds.value().bytes.span(), ds.value().desc, &compressed);
  if (!st.ok()) return 1;

  Timer timer;
  auto scan = compressors::BuffCompressor::SubColumnScan(
      compressed.span(), compressors::BuffCompressor::Predicate::kLess, 0.0);
  double in_place_ms = timer.ElapsedSeconds() * 1e3;
  if (!scan.ok()) return 1;
  uint64_t hits = 0;
  for (bool b : scan.value()) hits += b;

  // Compare against decode + scan.
  timer.Reset();
  Buffer restored;
  st = buff->Decompress(compressed.span(), ds.value().desc, &restored);
  auto df =
      db::DataFrame::FromBytes(restored.span(), ds.value().desc).TakeValue();
  uint64_t hits2 = 0;
  for (size_t c = 0; c < df.num_columns(); ++c) {
    hits2 += df.CountLessEqual(c, 0.0);
  }
  double decode_scan_ms = timer.ElapsedSeconds() * 1e3;

  std::printf("  predicate x < 0: in-place %.2f ms vs decode+scan %.2f ms "
              "(%.1fx), %llu vs %llu hits\n",
              in_place_ms, decode_scan_ms,
              in_place_ms > 0 ? decode_scan_ms / in_place_ms : 0.0,
              static_cast<unsigned long long>(hits),
              static_cast<unsigned long long>(hits2));
  std::printf("  (BUFF scans every element as flat records; the dataframe "
              "path must decode first — the paper reports 35-50x for "
              "selective filters.)\n");

  // Full Gorilla stream (§3.4): (timestamp, value) pairs in two-hour
  // blocks, with time-range queries that decode only overlapping blocks.
  std::printf("\nGorilla block stream (timestamps + values):\n");
  Rng rng(99);
  std::vector<compressors::TsPoint> series(86400);  // one day at 1 Hz
  int64_t t = 1700000000000;
  double level = 21.0;
  for (auto& p : series) {
    t += 1000;
    level += rng.Normal() * 0.02;
    p = {t, level};
  }
  compressors::TimeSeriesBlockCodec codec(
      compressors::TimeSeriesBlockCodec::Options{.points_per_block = 7200});
  Buffer blocks;
  if (!codec.Compress(series, &blocks).ok()) return 1;
  std::printf("  %zu points: %zu raw -> %zu bytes (%.2f bytes/point; raw "
              "is 16)\n",
              series.size(), series.size() * 16, blocks.size(),
              double(blocks.size()) / series.size());
  size_t decoded = 0;
  Timer range_timer;
  auto window = compressors::TimeSeriesBlockCodec::QueryRange(
      blocks.span(), series[40000].ts, series[41000].ts, &decoded);
  if (!window.ok()) return 1;
  std::printf("  17-minute window query: %zu points from %zu of 12 blocks "
              "in %.2f ms (directory pruning)\n",
              window.value().size(), decoded,
              range_timer.ElapsedSeconds() * 1e3);
  return 0;
}

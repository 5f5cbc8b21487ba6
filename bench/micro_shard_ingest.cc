// Sharded-ingest microbenchmark: multi-tenant append throughput across
// 64k synthetic series hash-routed onto 8 IngestEngine shards, on
// 1/2/4/8 writer threads, with and without per-shard fsync.
//
// Modes (JSON `method` column):
//   shard-nosync-tN     sync_on_commit=false, N writer threads over the
//                       full series population — upper bound, page-cache
//                       absorbed
//   shard-fsync-tN      sync_on_commit=true, N writer threads over a
//                       reduced series population (one group commit =
//                       one fsync per series batch; capped so the lane
//                       stays fast)
//
// Per mode the JSON row records
//   ct_gbps  append throughput (raw row bytes / append wall time)
//   dt_gbps  recovery throughput (raw row bytes / reopen-replay wall)
//   cr       raw row bytes / on-disk segment bytes after a flush
//
// The committed artifact is BENCH_ingest_scaling.json (perf-smoke lane).
// Single-core hosts legitimately produce a flat thread curve — the
// banner records the knobs so trajectories compare like with like.

#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "db/shard/sharded_engine.h"
#include "obs/metrics.h"
#include "util/fs.h"
#include "util/timer.h"

using namespace fcbench;
using namespace fcbench::db;

namespace {

constexpr size_t kNumCols = 2;
constexpr size_t kNumShards = 8;
constexpr size_t kSeries = 65536;
/// fsync mode costs one disk flush per series batch; cap the population
/// so the lane stays fast while still measuring real per-commit syncs.
constexpr size_t kFsyncSeries = 1024;

std::vector<lsm::ColumnDef> Schema() {
  return {
      {.name = "ts", .dtype = DType::kFloat64},
      {.name = "value", .dtype = DType::kFloat64},
  };
}

/// One batch for `series`: a regular timestamp and a per-series phase of
/// a smooth oscillation — compressible, but not degenerate.
void FillBatch(uint64_t series, size_t rows, std::vector<double>* out) {
  out->resize(rows * kNumCols);
  for (size_t i = 0; i < rows; ++i) {
    (*out)[i * kNumCols + 0] = 1.0e9 + static_cast<double>(i) * 10.0;
    (*out)[i * kNumCols + 1] =
        std::sin(static_cast<double>(series) * 0.1 +
                 static_cast<double>(i) * 0.01) *
        100.0;
  }
}

void RemoveTree(const std::string& dir) {
  auto names = fs::ListDir(dir);
  if (names.ok()) {
    for (const auto& n : names.value()) {
      const std::string p = fs::JoinPath(dir, n);
      if (!fs::RemoveFile(p).ok()) RemoveTree(p);  // a shard subdirectory
    }
  }
  ::rmdir(dir.c_str());
}

/// Total bytes of seg-* files across every shard subdirectory.
uint64_t SegmentBytes(const std::string& dir) {
  uint64_t total = 0;
  auto names = fs::ListDir(dir);
  if (!names.ok()) return 0;
  for (const auto& n : names.value()) {
    if (n.compare(0, 6, "shard-") != 0) continue;
    const std::string sub = fs::JoinPath(dir, n);
    auto files = fs::ListDir(sub);
    if (!files.ok()) continue;
    for (const auto& f : files.value()) {
      if (f.compare(0, 4, "seg-") != 0) continue;
      auto sz = fs::FileSize(fs::JoinPath(sub, f));
      if (sz.ok()) total += sz.value();
    }
  }
  return total;
}

struct ModeResult {
  double ct_gbps = 0;
  double dt_gbps = 0;
  double cr = 0;
  /// Per-AppendBatch latency percentiles for THIS run, from the
  /// lsm.append_nanos histogram delta (all shards pooled).
  double append_p50_ns = 0;
  double append_p99_ns = 0;
  bool ok = false;
};

ModeResult RunMode(const std::string& tag, size_t num_series,
                   size_t rows_per_series, size_t threads, bool sync) {
  ModeResult r;
  const std::string dir =
      "/tmp/fcbench_shard_bench_" + std::to_string(::getpid()) + "_" + tag;
  const uint64_t total_rows =
      static_cast<uint64_t>(num_series) * rows_per_series;
  const uint64_t raw_bytes = total_rows * kNumCols * sizeof(double);

  shard::ShardOptions opt;
  opt.num_shards = kNumShards;
  opt.engine.sync_on_commit = sync;
  opt.engine.background_flush = true;
  opt.engine.compact_fanout = 0;
  // Keep the run in the memtables so the append loop times the
  // admission + WAL + memtable path, not a flush in the middle; quota
  // sized so admission never stalls the writers.
  opt.engine.memtable_bytes = raw_bytes / kNumShards + (1 << 20);
  opt.engine.wal_segment_bytes = 8 << 20;
  opt.shard_quota_bytes = static_cast<size_t>(raw_bytes) + (1 << 20);

  RemoveTree(dir);
  {
    auto eng = shard::ShardedIngestEngine::Open(dir, Schema(), opt);
    if (!eng.ok()) {
      std::fprintf(stderr, "%s: open: %s\n", tag.c_str(),
                   eng.status().ToString().c_str());
      return r;
    }
    std::atomic<bool> failed{false};
    static obs::Histogram* append_nanos =
        obs::MetricsRegistry::Global().GetHistogram("lsm.append_nanos",
                                                    obs::Unit::kNanos);
    const obs::HistogramSnapshot before = append_nanos->SnapshotNow();
    Timer append_timer;
    std::vector<std::thread> writers;
    for (size_t t = 0; t < threads; ++t) {
      writers.emplace_back([&, t] {
        // Each writer owns a contiguous slice of the series population.
        const size_t lo = t * num_series / threads;
        const size_t hi = (t + 1) * num_series / threads;
        std::vector<double> batch;
        for (size_t s = lo; s < hi && !failed.load(); ++s) {
          FillBatch(s, rows_per_series, &batch);
          if (!eng.value()->AppendBatch(s, batch).ok()) failed = true;
        }
      });
    }
    for (auto& w : writers) w.join();
    if (failed.load()) {
      std::fprintf(stderr, "%s: append failed\n", tag.c_str());
      return r;
    }
    r.ct_gbps = raw_bytes / append_timer.ElapsedSeconds() / 1e9;
    const obs::HistogramSnapshot run =
        append_nanos->SnapshotNow().Delta(before);
    r.append_p50_ns = run.p50();
    r.append_p99_ns = run.p99();
    // Engine closed without Flush: recovery below replays every row
    // from the per-shard WALs, exactly the crash path.
  }

  shard::ShardOptions reopen = opt;
  reopen.num_shards = 0;  // adopt the pinned count
  Timer replay_timer;
  auto eng = shard::ShardedIngestEngine::Open(dir, Schema(), reopen);
  if (!eng.ok() || eng.value()->rows() != total_rows) {
    std::fprintf(stderr, "%s: recovery lost rows\n", tag.c_str());
    return r;
  }
  r.dt_gbps = raw_bytes / replay_timer.ElapsedSeconds() / 1e9;

  if (!eng.value()->Flush().ok()) {
    std::fprintf(stderr, "%s: flush failed\n", tag.c_str());
    return r;
  }
  const uint64_t seg_bytes = SegmentBytes(dir);
  if (seg_bytes > 0) r.cr = static_cast<double>(raw_bytes) / seg_bytes;
  eng.value()->Close();
  eng.value().reset();
  RemoveTree(dir);
  r.ok = true;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Banner("micro_shard_ingest: sharded multi-tenant ingest",
                "admission-controlled append scaling across 8 shards");
  const uint64_t bytes = bench::BenchBytes(2 << 20);
  const int repeats = bench::BenchRepeats(2);
  // Rows per series so the nosync population totals ~FCBENCH_BENCH_BYTES.
  const size_t rows_per_series = static_cast<size_t>(std::max<uint64_t>(
      1, bytes / (kSeries * kNumCols * sizeof(double))));

  bench::JsonReporter json;
  bench::TablePrinter table({"mode", "series", "append GB/s", "replay GB/s",
                             "seg CR", "p50 us", "p99 us"},
                            12, 18);
  for (const bool sync : {false, true}) {
    const size_t num_series = sync ? kFsyncSeries : kSeries;
    // fsync batches are padded so the reduced population still carries a
    // measurable payload per commit.
    const size_t rows = sync ? std::max<size_t>(rows_per_series, 16)
                             : rows_per_series;
    for (const size_t threads : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
      const std::string name = std::string("shard-") +
                               (sync ? "fsync" : "nosync") + "-t" +
                               std::to_string(threads);
      ModeResult best;
      for (int rep = 0; rep < repeats; ++rep) {
        ModeResult r = RunMode(name, num_series, rows, threads, sync);
        if (!r.ok) continue;
        if (!best.ok || r.ct_gbps > best.ct_gbps) {
          best.ct_gbps = r.ct_gbps;
          best.append_p50_ns = r.append_p50_ns;
          best.append_p99_ns = r.append_p99_ns;
          best.ok = true;
        }
        best.dt_gbps = std::max(best.dt_gbps, r.dt_gbps);
        best.cr = std::max(best.cr, r.cr);
      }
      if (!best.ok) continue;
      table.AddRow({name, std::to_string(num_series),
                    bench::TablePrinter::Fmt(best.ct_gbps),
                    bench::TablePrinter::Fmt(best.dt_gbps),
                    bench::TablePrinter::Fmt(best.cr),
                    bench::TablePrinter::Fmt(best.append_p50_ns / 1e3),
                    bench::TablePrinter::Fmt(best.append_p99_ns / 1e3)});
      json.Add(name, "synthetic-series", best.cr, best.ct_gbps, best.dt_gbps,
               {{"append_p50_ns", best.append_p50_ns},
                {"append_p99_ns", best.append_p99_ns}});
    }
  }
  table.Print();

  const std::string json_path =
      bench::JsonOutputPath(argc, argv, "BENCH_ingest_scaling.json");
  if (!json_path.empty()) json.WriteToFile(json_path);
  return 0;
}

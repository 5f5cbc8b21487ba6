// Ingest-engine microbenchmark: WAL append throughput under the three
// durability policies, recovery (WAL replay) speed, and the compression
// ratio the flushed segments achieve.
//
// Modes (JSON `method` column):
//   ingest-nosync       sync_on_commit=false, 256-row batches — upper
//                       bound: the OS page cache absorbs every commit
//   ingest-batched      sync_on_commit=true, 256-row batches — the
//                       group-commit sweet spot (one fsync per batch)
//   ingest-fsync-row    sync_on_commit=true, one-row batches — worst
//                       case, one fsync per row (row count capped)
//
// Per mode the JSON row records
//   ct_gbps  append throughput (raw row bytes / append wall time)
//   dt_gbps  recovery throughput (raw row bytes / reopen-replay wall)
//   cr       raw row bytes / on-disk segment bytes after a flush
//
// The committed artifact is BENCH_ingest_throughput.json (perf-smoke
// lane). No thresholds are enforced; the JSON records the trajectory.

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "db/lsm/lsm_engine.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "util/fs.h"
#include "util/timer.h"

using namespace fcbench;
using namespace fcbench::db::lsm;

namespace {

constexpr size_t kNumCols = 3;
constexpr size_t kBatchRows = 256;
/// fsync-per-row is O(row count) in disk flushes; cap it so the lane
/// stays fast while still measuring a real per-row sync cost.
constexpr uint64_t kMaxFsyncRows = 2000;

std::vector<ColumnDef> Schema() {
  return {
      {.name = "ts", .dtype = DType::kFloat64},
      {.name = "value", .dtype = DType::kFloat64},
      {.name = "flag", .dtype = DType::kFloat32},
  };
}

/// Row i of the deterministic sensor-like table: a regular timestamp, a
/// smooth oscillation, and a small categorical — compressible, but not
/// degenerate.
void FillRow(uint64_t i, double* out) {
  out[0] = 1.0e9 + static_cast<double>(i) * 10.0;
  out[1] = std::sin(static_cast<double>(i) * 0.01) * 100.0;
  out[2] = static_cast<double>(i % 7);
}

uint64_t DirBytes(const std::string& dir, const char* prefix) {
  auto names = fs::ListDir(dir);
  if (!names.ok()) return 0;
  uint64_t total = 0;
  for (const auto& n : names.value()) {
    if (n.compare(0, std::strlen(prefix), prefix) != 0) continue;
    auto sz = fs::FileSize(fs::JoinPath(dir, n));
    if (sz.ok()) total += sz.value();
  }
  return total;
}

void RemoveTree(const std::string& dir) {
  auto names = fs::ListDir(dir);
  if (names.ok()) {
    for (const auto& n : names.value()) fs::RemoveFile(fs::JoinPath(dir, n));
  }
  ::rmdir(dir.c_str());
}

struct ModeResult {
  double ct_gbps = 0;
  double dt_gbps = 0;
  double cr = 0;
  /// Per-AppendBatch latency percentiles for THIS run, from the
  /// lsm.append_nanos histogram delta (0 when metrics are disabled).
  double append_p50_ns = 0;
  double append_p99_ns = 0;
  bool ok = false;
};

ModeResult RunMode(const std::string& tag, uint64_t nrows, size_t batch_rows,
                   bool sync_on_commit) {
  ModeResult r;
  const std::string dir =
      "/tmp/fcbench_ingest_" + std::to_string(::getpid()) + "_" + tag;
  const uint64_t raw_bytes = nrows * kNumCols * sizeof(double);

  EngineOptions opt;
  opt.sync_on_commit = sync_on_commit;
  opt.background_flush = false;
  opt.compact_fanout = 0;
  // Keep the whole run in one memtable so the append loop times the
  // WAL+memtable path alone, not a flush in the middle.
  opt.memtable_bytes = raw_bytes + (1 << 20);
  opt.wal_segment_bytes = 8 << 20;

  RemoveTree(dir);
  {
    auto eng = IngestEngine::Open(dir, Schema(), opt);
    if (!eng.ok()) {
      std::fprintf(stderr, "%s: open: %s\n", tag.c_str(),
                   eng.status().ToString().c_str());
      return r;
    }
    std::vector<double> batch;
    batch.reserve(batch_rows * kNumCols);
    static obs::Histogram* append_nanos =
        obs::MetricsRegistry::Global().GetHistogram("lsm.append_nanos",
                                                    obs::Unit::kNanos);
    const obs::HistogramSnapshot before = append_nanos->SnapshotNow();
    Timer append_timer;
    for (uint64_t i = 0; i < nrows;) {
      batch.clear();
      const uint64_t take = std::min<uint64_t>(batch_rows, nrows - i);
      batch.resize(take * kNumCols);
      for (uint64_t k = 0; k < take; ++k) {
        FillRow(i + k, &batch[k * kNumCols]);
      }
      if (!eng.value()->AppendBatch(batch).ok()) {
        std::fprintf(stderr, "%s: append failed\n", tag.c_str());
        return r;
      }
      i += take;
    }
    r.ct_gbps = raw_bytes / append_timer.ElapsedSeconds() / 1e9;
    // This run's slice of the process-lifetime histogram: the tail the
    // throughput number hides (one slow fsync in 8k batches).
    const obs::HistogramSnapshot run = append_nanos->SnapshotNow().Delta(before);
    r.append_p50_ns = run.p50();
    r.append_p99_ns = run.p99();
    // Engine destroyed without Flush: recovery below replays every row
    // from the WAL, exactly the crash path.
  }

  Timer replay_timer;
  auto eng = IngestEngine::Open(dir, Schema(), opt);
  if (!eng.ok() || eng.value()->rows() != nrows) {
    std::fprintf(stderr, "%s: recovery lost rows\n", tag.c_str());
    return r;
  }
  r.dt_gbps = raw_bytes / replay_timer.ElapsedSeconds() / 1e9;

  if (!eng.value()->Flush().ok()) {
    std::fprintf(stderr, "%s: flush failed\n", tag.c_str());
    return r;
  }
  const uint64_t seg_bytes = DirBytes(dir, "seg-");
  if (seg_bytes > 0) r.cr = static_cast<double>(raw_bytes) / seg_bytes;
  eng.value().reset();  // close before deleting the tree
  RemoveTree(dir);
  r.ok = true;
  return r;
}

/// One side of an A/B overhead check: switches the process into its
/// configuration before each of its runs.
struct Side {
  const char* tag;
  void (*enter)();
};

/// Best nosync append throughput of sides `a` and `b` over `reps` reps of
/// one run each. The side that runs first alternates every rep, so
/// neither side always inherits the other's page cache and allocator
/// state, and machine-load drift hits both sides alike.
std::pair<double, double> AlternatingBest(int reps, uint64_t nrows,
                                          const Side& a, const Side& b) {
  const Side* sides[2] = {&a, &b};
  double best[2] = {0, 0};
  for (int rep = 0; rep < reps; ++rep) {
    for (int k = 0; k < 2; ++k) {
      const int s = (rep + k) % 2;
      sides[s]->enter();
      ModeResult r = RunMode(sides[s]->tag, nrows, kBatchRows, false);
      if (r.ok) best[s] = std::max(best[s], r.ct_gbps);
    }
  }
  return {best[0], best[1]};
}

}  // namespace

int main(int argc, char** argv) {
  bench::Banner("micro_ingest: WAL-backed ingest engine",
                "crash-safe append / recovery / segment-CR trajectory");
  const uint64_t bytes = bench::BenchBytes(2 << 20);
  const int repeats = bench::BenchRepeats(2);
  const uint64_t nrows = std::max<uint64_t>(
      kBatchRows, bytes / (kNumCols * sizeof(double)));

  struct Mode {
    const char* name;
    uint64_t rows;
    size_t batch_rows;
    bool sync;
  } modes[] = {
      {"ingest-nosync", nrows, kBatchRows, false},
      {"ingest-batched", nrows, kBatchRows, true},
      {"ingest-fsync-row", std::min(nrows, kMaxFsyncRows), 1, true},
  };

  bench::JsonReporter json;
  bench::TablePrinter table({"mode", "rows", "append GB/s", "replay GB/s",
                             "seg CR", "p50 us", "p99 us"},
                            12, 18);
  for (const auto& m : modes) {
    // Best-of-N: ingest wall time is fsync-dominated and noisy; the max
    // is the honest capability number, like the other micro benches.
    ModeResult best;
    for (int rep = 0; rep < repeats; ++rep) {
      ModeResult r = RunMode(m.name, m.rows, m.batch_rows, m.sync);
      if (!r.ok) continue;
      if (!best.ok || r.ct_gbps > best.ct_gbps) {
        best.ct_gbps = r.ct_gbps;
        // The percentiles travel with the run whose throughput is
        // reported, not a max over runs.
        best.append_p50_ns = r.append_p50_ns;
        best.append_p99_ns = r.append_p99_ns;
        best.ok = true;
      }
      best.dt_gbps = std::max(best.dt_gbps, r.dt_gbps);
      best.cr = std::max(best.cr, r.cr);
    }
    if (!best.ok) continue;
    table.AddRow({m.name, std::to_string(m.rows),
                  bench::TablePrinter::Fmt(best.ct_gbps),
                  bench::TablePrinter::Fmt(best.dt_gbps),
                  bench::TablePrinter::Fmt(best.cr),
                  bench::TablePrinter::Fmt(best.append_p50_ns / 1e3),
                  bench::TablePrinter::Fmt(best.append_p99_ns / 1e3)});
    json.Add(m.name, "sensor-rows", best.cr, best.ct_gbps, best.dt_gbps,
             {{"append_p50_ns", best.append_p50_ns},
              {"append_p99_ns", best.append_p99_ns}});
  }
  table.Print();

  // Metrics-overhead check (acceptance: < 2% append-throughput
  // regression with collection enabled vs idle). The nosync mode is the
  // honest worst case — no fsync to hide the counter adds behind.
  {
    const auto [on_best, off_best] = AlternatingBest(
        std::max(repeats, 3), nrows,
        {"overhead-on", [] { obs::SetEnabled(true); }},
        {"overhead-off", [] { obs::SetEnabled(false); }});
    obs::SetEnabled(true);
    const double overhead_pct =
        off_best > 0 ? (off_best - on_best) / off_best * 100.0 : 0.0;
    const bool within = overhead_pct < 2.0;
    std::printf(
        "metrics overhead: enabled %.3f GB/s vs idle %.3f GB/s -> "
        "%+.2f%% [%s]\n",
        on_best, off_best, overhead_pct,
        within ? "OK, budget 2%" : "EXCEEDED, budget 2%");
    json.Add("ingest-metrics-overhead", "sensor-rows", 0.0, on_best, off_best,
             {{"overhead_pct", overhead_pct}, {"budget_pct", 2.0}});
  }

  // Trace-overhead check (acceptance: < 2% append-throughput regression
  // with span tracing disabled — its steady state — versus sampled
  // tracing at 1/64). The disabled side exercises the
  // one-relaxed-load-per-span fast path that every production append
  // pays; the sampled side bounds the cost of turning tracing on.
  {
    const auto [off_best, sampled_best] = AlternatingBest(
        std::max(repeats, 3), nrows,
        {"trace-off", [] { obs::SetTraceSampling(0); }},
        {"trace-sampled", [] { obs::SetTraceSampling(64, 1); }});
    obs::SetTraceSampling(0);
    const double overhead_pct =
        off_best > 0 ? (off_best - sampled_best) / off_best * 100.0 : 0.0;
    const bool within = overhead_pct < 2.0;
    std::printf(
        "trace overhead: sampled 1/64 %.3f GB/s vs disabled %.3f GB/s -> "
        "%+.2f%% [%s]\n",
        sampled_best, off_best, overhead_pct,
        within ? "OK, budget 2%" : "EXCEEDED, budget 2%");
    json.Add("trace-overhead", "sensor-rows", 0.0, sampled_best, off_best,
             {{"overhead_pct", overhead_pct}, {"budget_pct", 2.0}});
  }

  const std::string json_path =
      bench::JsonOutputPath(argc, argv, "BENCH_ingest_throughput.json");
  if (!json_path.empty()) json.WriteToFile(json_path);

  // --metrics-json=PATH: dump the full registry snapshot (the perf-smoke
  // lane commits this next to the BENCH_*.json artifacts).
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--metrics-json=", 0) != 0) continue;
    const std::string path = arg.substr(std::strlen("--metrics-json="));
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", path.c_str());
      return 1;
    }
    const std::string snap =
        obs::MetricsRegistry::Global().Snapshot().ToJson();
    std::fwrite(snap.data(), 1, snap.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
    std::printf("wrote metrics snapshot to %s\n", path.c_str());
  }
  return 0;
}

// load-scan and ingest-durable: closed-loop writers into a sharded
// engine, a final flush, then closed-loop scan queries; and the
// standalone replay of the same batches and scans into each layer below
// the sharded engine (traced run only).

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <thread>

#include "bench.h"
#include "db/column_store.h"
#include "db/dataframe.h"
#include "db/lsm/lsm_engine.h"
#include "db/lsm/memtable.h"
#include "db/lsm/wal.h"
#include "db/query.h"
#include "db/shard/sharded_engine.h"
#include "obs/metrics.h"
#include "stats.h"
#include "util/bitio.h"
#include "util/fs.h"

namespace perfbench {

namespace db = fcbench::db;
namespace lsm = fcbench::db::lsm;
namespace shard = fcbench::db::shard;
using fcbench::Status;

namespace {

constexpr size_t kShards = 4;
constexpr auto kAppendDeadline = std::chrono::seconds(30);

std::vector<lsm::ColumnDef> Schema(const IngestInput& in) {
  std::vector<lsm::ColumnDef> schema;
  for (size_t c = 0; c < in.ncols; ++c) {
    lsm::ColumnDef def;
    def.name = ColumnName(c);
    def.dtype = fcbench::DType::kFloat64;
    def.precision_digits = in.precision_digits;
    schema.push_back(def);
  }
  return schema;
}

/// Four shards; flush, compaction and admission at their defaults.
shard::ShardOptions Options(const IngestShape& shape) {
  shard::ShardOptions opt;
  opt.num_shards = kShards;
  opt.engine.sync_on_commit = shape.sync_on_commit;
  return opt;
}

/// Scan j of a cycle: the columns in turn, each with the next decile.
const ScanSpec& ScanAt(const IngestInput& in, size_t j) {
  return in.scans[(j % in.ncols) * 9 + (j / in.ncols) % 9];
}

std::vector<double> Concat(std::vector<std::vector<double>> parts) {
  std::vector<double> all;
  for (const auto& p : parts) all.insert(all.end(), p.begin(), p.end());
  return all;
}

/// The query half of a scan: `column <= threshold`, then the sum of the
/// matching values, checked against the reference answer.
bool Query(std::vector<double> column, const ScanSpec& spec, Tracer* tracer,
           uint64_t* filter_ns, uint64_t* aggregate_ns) {
  auto df = db::DataFrame::FromColumns({ColumnName(spec.col)},
                                       {std::move(column)});
  if (!df.ok()) return false;
  db::ScanPredicate pred;
  pred.column = 0;
  pred.op = db::CompareOp::kLe;
  pred.value = spec.threshold;
  Span filter(tracer, "query.filter");
  auto sel = db::Filter(df.value(), pred);
  *filter_ns = filter.Stop();
  if (!sel.ok()) return false;
  Span aggregate(tracer, "query.aggregate");
  auto sum = db::Aggregate(df.value(), 0, db::AggregateOp::kSum, &sel.value());
  *aggregate_ns = aggregate.Stop();
  return sum.ok() && sel.value().size() == spec.count &&
         std::fabs(sum.value() - spec.sum) <=
             1e-9 * std::max(1.0, spec.abs_sum);
}

/// Closed loop: writer w appends batches w, w + kLoadThreads, ... and
/// waits for each acknowledgement before sending the next.
std::vector<double> LoadBatches(shard::ShardedIngestEngine* eng,
                                const IngestInput& in, Tracer* tracer,
                                uint64_t parent, Outcome* out,
                                std::vector<char>* acked) {
  std::vector<std::vector<double>> latency(kLoadThreads);
  std::vector<std::thread> writers;
  for (size_t w = 0; w < kLoadThreads; ++w) {
    writers.emplace_back([&, w] {
      for (size_t b = w; b < in.batches.size(); b += kLoadThreads) {
        Span span(tracer, "shard.append", parent);
        const Status st = eng->AppendBatchUntil(
            in.keys[b], in.batches[b],
            std::chrono::steady_clock::now() + kAppendDeadline);
        latency[w].push_back(span.Stop() / 1e3);
        (*acked)[b] = st.ok() ? 1 : 0;
        out->Op(st.ok(), "append: " + st.ToString());
      }
    });
  }
  for (auto& t : writers) t.join();
  std::vector<double> all;
  for (const auto& l : latency) all.insert(all.end(), l.begin(), l.end());
  return all;
}

/// Closed loop: reader r runs scans r, r + kLoadThreads, ... of the cycle.
std::vector<double> RunScans(const shard::ShardedIngestEngine& eng,
                             const IngestInput& in, size_t count,
                             Tracer* tracer, uint64_t parent, Outcome* out,
                             double* bytes_read) {
  std::vector<std::vector<double>> latency(kLoadThreads);
  std::vector<double> bytes(kLoadThreads, 0);
  std::vector<std::thread> readers;
  for (size_t r = 0; r < kLoadThreads; ++r) {
    readers.emplace_back([&, r] {
      for (size_t j = r; j < count; j += kLoadThreads) {
        const ScanSpec& spec = ScanAt(in, j);
        Span scan(tracer, "scan", parent);
        fcbench::Result<std::vector<std::vector<double>>> parts =
            Status::Internal("unread");
        {
          Span read(tracer, "shard.snapshot_read");
          parts = eng.SnapshotReadShards(ColumnName(spec.col));
        }
        uint64_t filter_ns = 0, aggregate_ns = 0;
        bool ok = parts.ok();
        size_t rows = 0;
        if (ok) {
          std::vector<double> column = Concat(std::move(parts).value());
          rows = column.size();
          ok = Query(std::move(column), spec, tracer, &filter_ns,
                     &aggregate_ns);
        }
        latency[r].push_back(scan.Stop() / 1e6);
        bytes[r] += rows * 8.0;
        out->Op(ok, "scan " + ColumnName(spec.col) + " <= " +
                        std::to_string(spec.threshold));
      }
    });
  }
  for (auto& t : readers) t.join();
  std::vector<double> all;
  for (size_t r = 0; r < kLoadThreads; ++r) {
    all.insert(all.end(), latency[r].begin(), latency[r].end());
    *bytes_read += bytes[r];
  }
  return all;
}

/// After reopen: every shard holds exactly the acknowledged rows, by
/// count and by an order-independent hash of each column.
void VerifyRecovered(const shard::ShardedIngestEngine& eng,
                     const IngestInput& in, const std::vector<char>& acked,
                     Outcome* out) {
  std::vector<uint64_t> rows(kShards, 0);
  std::vector<std::vector<uint64_t>> hash(kShards,
                                          std::vector<uint64_t>(in.ncols, 0));
  for (size_t b = 0; b < in.batches.size(); ++b) {
    if (!acked[b]) continue;
    const size_t k = eng.ShardOf(in.keys[b]);
    rows[k] += in.batch_rows;
    for (size_t c = 0; c < in.ncols; ++c) {
      hash[k][c] += ValueHash(in.batches[b].data() + c, in.batch_rows, in.ncols);
    }
  }
  for (size_t c = 0; c < in.ncols; ++c) {
    auto parts = eng.SnapshotReadShards(ColumnName(c));
    bool ok = parts.ok() && parts.value().size() == kShards;
    for (size_t k = 0; ok && k < kShards; ++k) {
      const std::vector<double>& got = parts.value()[k];
      ok = got.size() == rows[k] &&
           ValueHash(got.data(), got.size()) == hash[k][c];
    }
    out->Op(ok, "recovered rows of " + ColumnName(c));
  }
}

fcbench::Buffer WalPayload(const std::vector<double>& batch, size_t rows) {
  // The record the engine logs for a batch: row count, then the rows.
  fcbench::Buffer p;
  fcbench::PutVarint64(&p, rows);
  p.Append(batch.data(), batch.size() * sizeof(double));
  return p;
}

double CounterDelta(const fcbench::obs::MetricsSnapshot& before,
                    const fcbench::obs::MetricsSnapshot& after,
                    std::string_view name) {
  const auto* a = before.FindCounter(name);
  const auto* b = after.FindCounter(name);
  return (b ? static_cast<double>(b->value) : 0.0) -
         (a ? static_cast<double>(a->value) : 0.0);
}

double HistogramCountDelta(const fcbench::obs::MetricsSnapshot& before,
                           const fcbench::obs::MetricsSnapshot& after,
                           std::string_view name) {
  const auto* a = before.FindHistogram(name);
  const auto* b = after.FindHistogram(name);
  return (b ? static_cast<double>(b->count) : 0.0) -
         (a ? static_cast<double>(a->count) : 0.0);
}

/// Adds a timing metric (its median) and its sample count and tail.
void AddTiming(LayerReport* report, const std::string& name,
               const std::vector<double>& samples, const std::string& unit) {
  const Summary s = Summarize(samples);
  report->metrics.push_back({name, s.p50, unit});
  report->details.push_back({name, s.ToString()});
}

}  // namespace

IngestShape LoadScanShape() {
  return {.batches = 768, .batch_rows = 1024, .sync_on_commit = false,
          .scans = 96, .reopen = false};
}

IngestShape IngestDurableShape() {
  return {.batches = 2048, .batch_rows = 64, .sync_on_commit = true,
          .scans = 96, .reopen = true};
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (std::filesystem::recursive_directory_iterator it(dir, ec), end;
       !ec && it != end; it.increment(ec)) {
    std::error_code size_ec;
    if (it->is_regular_file(size_ec)) {
      const uint64_t n = it->file_size(size_ec);
      if (!size_ec) total += n;
    }
  }
  return total;
}

void RemoveTree(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

CycleResult RunIngestCycle(const Config& cfg, const IngestShape& shape,
                           Tracer* tracer, Outcome* out) {
  static int cycle = 0;
  const std::string dir = cfg.workdir + "/cycle-" + std::to_string(cycle++);
  RemoveTree(dir);
  CycleResult r;
  Span cycle_span(tracer, "cycle");

  uint64_t setup_ns = 0;
  const uint64_t setup_start = NowNanos();
  IngestInput in;
  {
    Span span(tracer, "setup.generate");
    in = MakeIngestInput(cfg.seed, shape.batches, shape.batch_rows);
  }
  auto opened = [&] {
    Span span(tracer, "setup.open");
    return shard::ShardedIngestEngine::Open(dir, Schema(in), Options(shape));
  }();
  setup_ns += NowNanos() - setup_start;
  if (!opened.ok()) {
    out->Op(false, "open: " + opened.status().ToString());
    return r;
  }
  std::unique_ptr<shard::ShardedIngestEngine> eng = std::move(opened).value();

  // Write phase: from the first append until the final Flush returns,
  // so flush and compaction throughput count.
  std::vector<char> acked(in.batches.size(), 0);
  const uint64_t load_start = NowNanos();
  {
    Span load(tracer, "load");
    r.write_us = LoadBatches(eng.get(), in, tracer, load.id(), out, &acked);
    Span flush(tracer, "shard.flush");
    const Status st = eng->Flush();
    out->Op(st.ok(), "final flush: " + st.ToString());
  }
  r.write_s = (NowNanos() - load_start) / 1e9;
  const uint64_t acked_rows =
      std::count(acked.begin(), acked.end(), 1) * in.batch_rows;
  r.user_bytes = r.write_bytes = acked_rows * in.ncols * 8.0;

  // Background flushes and compactions finish before anything is read.
  const uint64_t quiesce_start = NowNanos();
  {
    Span span(tracer, "setup.quiesce");
    for (size_t k = 0; k < kShards; ++k) {
      const Status st = eng->shard(k)->WaitForFlush();
      out->Op(st.ok(), "quiesce: " + st.ToString());
    }
  }
  setup_ns += NowNanos() - quiesce_start;
  r.setup_s = setup_ns / 1e9;
  r.stored_bytes = DirBytes(dir);
  out->Op(eng->rows() == acked_rows, "row count after load");

  if (shape.reopen) {
    Span span(tracer, "recover");
    const Status st = eng->Close();
    out->Op(st.ok(), "close: " + st.ToString());
    eng.reset();
    shard::ShardOptions reopen = Options(shape);
    reopen.num_shards = 0;  // adopt the stored count
    auto again = shard::ShardedIngestEngine::Open(dir, Schema(in), reopen);
    out->Op(again.ok(), "reopen: " + again.status().ToString());
    if (!again.ok()) {
      RemoveTree(dir);
      return r;
    }
    eng = std::move(again).value();
    VerifyRecovered(*eng, in, acked, out);
  }

  const uint64_t read_start = NowNanos();
  {
    Span scans(tracer, "scans");
    r.read_ms = RunScans(*eng, in, shape.scans, tracer, scans.id(), out,
                         &r.read_bytes);
  }
  r.read_s = (NowNanos() - read_start) / 1e9;
  const Status st = eng->Close();
  out->Op(st.ok(), "close: " + st.ToString());
  eng.reset();
  RemoveTree(dir);
  return r;
}

std::vector<CodecInput> ReplayIngestLayers(const Config& cfg,
                                           const IngestShape& shape,
                                           Tracer* tracer, Outcome* out,
                                           LayerReport* report) {
  const IngestInput in =
      MakeIngestInput(cfg.seed, shape.batches, shape.batch_rows);
  const auto schema = Schema(in);
  const std::string root = cfg.workdir + "/replay";
  RemoveTree(root);
  std::filesystem::create_directories(root);
  const lsm::EngineOptions defaults;
  const size_t n = in.batches.size();
  auto ok_or_log = [&](const Status& st, const std::string& what) {
    out->Op(st.ok(), what + ": " + st.ToString());
    return st.ok();
  };

  // Sharded engine with the workload's options and one writer: append
  // latency, the counters of a full load, then the scans' layers.
  std::vector<size_t> shard_of(n);
  std::vector<double> sharded_us, read_column_ms, snapshot_ms, filter_ms,
      aggregate_ms;
  {
    auto eng = shard::ShardedIngestEngine::Open(root + "/sharded", schema,
                                                Options(shape));
    if (!ok_or_log(eng.status(), "replay open sharded")) return {};
    const auto before = fcbench::obs::MetricsRegistry::Global().Snapshot();
    for (size_t b = 0; b < n; ++b) {
      shard_of[b] = eng.value()->ShardOf(in.keys[b]);
      Span span(tracer, "shard.append");
      const Status st = eng.value()->AppendBatchUntil(
          in.keys[b], in.batches[b],
          std::chrono::steady_clock::now() + kAppendDeadline);
      sharded_us.push_back(span.Stop() / 1e3);
      ok_or_log(st, "replay sharded append");
    }
    {
      Span span(tracer, "shard.flush");
      ok_or_log(eng.value()->Flush(), "replay flush");
    }
    const auto after = fcbench::obs::MetricsRegistry::Global().Snapshot();
    const double user_bytes = static_cast<double>(in.user_bytes());
    report->metrics.push_back(
        {"wal.syncs_per_batch",
         HistogramCountDelta(before, after, "wal.sync_nanos") / n, "count"});
    report->metrics.push_back(
        {"lsm.write_amp",
         (CounterDelta(before, after, "wal.commit_bytes") +
          CounterDelta(before, after, "lsm.flush.segment_bytes") +
          CounterDelta(before, after, "lsm.compact.out_bytes")) /
             user_bytes,
         "ratio"});
    for (const char* c : {"wal.rotations", "lsm.flush.count",
                          "lsm.compact.count", "shard.append.rejected",
                          "pool.tasks"}) {
      report->metrics.push_back({c, CounterDelta(before, after, c), "count"});
    }

    for (size_t j = 0; j < shape.scans; ++j) {
      const ScanSpec& spec = ScanAt(in, j);
      const std::string col = ColumnName(spec.col);
      uint64_t read_ns = 0;
      for (size_t k = 0; k < kShards; ++k) {
        Span span(tracer, "lsm.read_column");
        auto values = eng.value()->shard(k)->ReadColumn(col);
        read_ns += span.Stop();
        ok_or_log(values.status(), "replay read column");
      }
      Span snap(tracer, "shard.snapshot_read");
      auto parts = eng.value()->SnapshotReadShards(col);
      snapshot_ms.push_back(snap.Stop() / 1e6);
      read_column_ms.push_back(read_ns / 1e6);
      uint64_t filter_ns = 0, aggregate_ns = 0;
      const bool ok = parts.ok() && Query(Concat(std::move(parts).value()),
                                          spec, tracer, &filter_ns,
                                          &aggregate_ns);
      out->Op(ok, "replay scan " + col);
      filter_ms.push_back(filter_ns / 1e6);
      aggregate_ms.push_back(aggregate_ns / 1e6);
      report->layer_ns += read_ns + filter_ns + aggregate_ns;
    }
    ok_or_log(eng.value()->Close(), "replay close sharded");
  }

  // The same batches and routing straight into four standalone engines.
  std::vector<double> direct_us;
  {
    std::vector<std::unique_ptr<lsm::IngestEngine>> shards;
    for (size_t k = 0; k < kShards; ++k) {
      auto e = lsm::IngestEngine::Open(
          root + "/direct-" + std::to_string(k), schema,
          Options(shape).engine);
      if (!ok_or_log(e.status(), "replay open direct")) return {};
      shards.push_back(std::move(e).value());
    }
    for (size_t b = 0; b < n; ++b) {
      Span span(tracer, "lsm.shard_append");
      const Status st = shards[shard_of[b]]->AppendBatch(in.batches[b]);
      direct_us.push_back(span.Stop() / 1e3);
      ok_or_log(st, "replay direct append");
    }
    for (auto& e : shards) ok_or_log(e->Close(), "replay close direct");
  }

  // One engine, every batch, without and with an fsync per commit.
  std::vector<double> lsm_us[2];
  for (const bool sync : {false, true}) {
    lsm::EngineOptions opt = Options(shape).engine;
    opt.sync_on_commit = sync;
    auto e = lsm::IngestEngine::Open(
        root + (sync ? "/lsm-sync" : "/lsm"), schema, opt);
    if (!ok_or_log(e.status(), "replay open lsm")) return {};
    for (size_t b = 0; b < n; ++b) {
      Span span(tracer, sync ? "lsm.append_sync" : "lsm.append");
      const Status st = e.value()->AppendBatch(in.batches[b]);
      lsm_us[sync].push_back(span.Stop() / 1e3);
      ok_or_log(st, "replay lsm append");
    }
    ok_or_log(e.value()->Close(), "replay close lsm");
  }

  // Memtables as the shards fill them; the first full ones feed the
  // column-store and codec replays.
  std::vector<double> memtable_us;
  std::vector<lsm::MemTable> mems, full;
  for (size_t k = 0; k < kShards; ++k) mems.emplace_back(in.ncols);
  for (size_t b = 0; b < n; ++b) {
    lsm::MemTable& mem = mems[shard_of[b]];
    Span span(tracer, "memtable.append");
    mem.AppendRows(in.batches[b].data(), in.batch_rows);
    memtable_us.push_back(span.Stop() / 1e3);
    if (mem.bytes() >= defaults.memtable_bytes) {
      if (full.size() < 4) full.push_back(std::move(mem));
      mem = lsm::MemTable(in.ncols);
    }
  }

  // WAL commits without and with fsync, and the device baseline: the
  // same record size appended and synced with no log around it.
  std::vector<double> wal_us[2], fsync_us;
  for (const bool sync : {false, true}) {
    const std::string dir = root + (sync ? "/wal-sync" : "/wal");
    std::filesystem::create_directories(dir);
    lsm::Wal::Options wopt;
    wopt.segment_bytes = defaults.wal_segment_bytes;
    wopt.sync_on_commit = sync;
    auto wal = lsm::Wal::Open(dir, 1, wopt);
    if (!ok_or_log(wal.status(), "replay open wal")) return {};
    for (size_t b = 0; b < n; ++b) {
      const fcbench::Buffer payload = WalPayload(in.batches[b], in.batch_rows);
      Span span(tracer, sync ? "wal.commit_sync" : "wal.commit");
      Status st = wal.value()->Append(lsm::Wal::kTypeRows, payload.span());
      if (st.ok()) st = wal.value()->Commit();
      wal_us[sync].push_back(span.Stop() / 1e3);
      ok_or_log(st, "replay wal commit");
    }
    ok_or_log(wal.value()->Close(), "replay close wal");
  }
  {
    const std::string dir = root + "/device";
    std::filesystem::create_directories(dir);
    auto file = fcbench::fs::AppendFile::Create(dir + "/probe", true);
    if (!ok_or_log(file.status(), "replay open device probe")) return {};
    for (size_t b = 0; b < n; ++b) {
      const fcbench::Buffer payload = WalPayload(in.batches[b], in.batch_rows);
      Span span(tracer, "device.fsync");
      Status st = file.value().Append(payload.span());
      if (st.ok()) st = file.value().Sync();
      fsync_us.push_back(span.Stop() / 1e3);
      ok_or_log(st, "replay device fsync");
    }
    ok_or_log(file.value().Close(), "replay close device probe");
  }

  // ColumnStore write (auto per column, as a flush does) and read back.
  double cs_raw = 0, cs_write_ns = 0;
  db::ColumnStore::ReadStats rs;
  for (size_t i = 0; i < full.size(); ++i) {
    std::vector<db::ColumnStore::ColumnSpec> specs;
    for (size_t c = 0; c < in.ncols; ++c) {
      specs.push_back({.name = ColumnName(c), .compressor = "auto",
                       .dtype = fcbench::DType::kFloat64,
                       .precision_digits = in.precision_digits,
                       .values = full[i].column(c)});
    }
    const std::string prefix = root + "/table-" + std::to_string(i);
    Span write(tracer, "column_store.write");
    const Status st = db::ColumnStore::Write(prefix, specs);
    cs_write_ns += write.Stop();
    if (!ok_or_log(st, "replay column store write")) continue;
    cs_raw += full[i].bytes();
    Span read(tracer, "column_store.read");
    auto df = db::ColumnStore::Read(prefix, {}, &rs);
    read.Stop();
    bool same = df.ok() && df.value().num_columns() == in.ncols;
    for (size_t c = 0; same && c < in.ncols; ++c) {
      same = df.value().column(c) == full[i].column(c);
    }
    out->Op(same, "replay column store round trip");
  }

  // Flush of one default-size memtable, then one compaction of the
  // flushed segments. Auto-flush and auto-compaction are off here so
  // each call is timed alone.
  std::vector<double> flush_ms;
  double compact_mbps = 0;
  {
    lsm::EngineOptions opt = Options(shape).engine;
    opt.sync_on_commit = false;
    opt.memtable_bytes = 2 * defaults.memtable_bytes;
    opt.compact_fanout = 0;
    auto e = lsm::IngestEngine::Open(root + "/flush", schema, opt);
    if (!ok_or_log(e.status(), "replay open flush engine")) return {};
    lsm::IngestEngine& eng = *e.value();
    size_t b = 0;
    for (int f = 0; f < 8; ++f) {
      while (eng.buffered_bytes() < defaults.memtable_bytes) {
        ok_or_log(eng.AppendBatch(in.batches[b++ % n]), "replay append");
      }
      Span span(tracer, "lsm.flush");
      Status st = eng.ScheduleFlush();
      if (st.ok()) st = eng.WaitForFlush();
      flush_ms.push_back(span.Stop() / 1e6);
      ok_or_log(st, "replay flush");
    }
    const auto before = eng.segments();
    Span span(tracer, "lsm.compact");
    const Status st = eng.Compact();
    const uint64_t compact_ns = span.Stop();
    ok_or_log(st, "replay compact");
    const auto after = eng.segments();
    uint64_t merged_rows = 0;
    for (const auto& s : before) {
      const bool kept = std::any_of(after.begin(), after.end(),
                                    [&](const auto& a) { return a.id == s.id; });
      if (!kept) merged_rows += s.rows;
    }
    compact_mbps = merged_rows * in.ncols * 8.0 / (compact_ns / 1e3);
    ok_or_log(eng.Close(), "replay close flush engine");
  }
  RemoveTree(root);

  for (size_t b = 0; b < n; ++b) {
    report->layer_ns +=
        (memtable_us[b] + wal_us[shape.sync_on_commit][b]) * 1e3;
  }
  AddTiming(report, "memtable.append_us", memtable_us, "us");
  AddTiming(report, "wal.commit_us", wal_us[0], "us");
  AddTiming(report, "wal.commit_sync_us", wal_us[1], "us");
  AddTiming(report, "device.fsync_us", fsync_us, "us");
  AddTiming(report, "lsm.append_us", lsm_us[0], "us");
  AddTiming(report, "lsm.append_sync_us", lsm_us[1], "us");
  report->metrics.push_back(
      {"shard.append_overhead_us",
       Percentile(sharded_us, 50) - Percentile(direct_us, 50), "us"});
  report->details.push_back({"shard.append(sharded)",
                             Summarize(sharded_us).ToString()});
  report->details.push_back({"shard.append(direct)",
                             Summarize(direct_us).ToString()});
  report->metrics.push_back(
      {"column_store.write_mbps", cs_raw / (cs_write_ns / 1e3), "MB/s"});
  AddTiming(report, "lsm.flush_ms", flush_ms, "ms");
  report->metrics.push_back({"lsm.compact_mbps", compact_mbps, "MB/s"});
  AddTiming(report, "lsm.read_column_ms", read_column_ms, "ms");
  report->metrics.push_back(
      {"shard.snapshot_overhead_ms",
       Percentile(snapshot_ms, 50) - Percentile(read_column_ms, 50), "ms"});
  report->details.push_back({"shard.snapshot_read_ms",
                             Summarize(snapshot_ms).ToString()});
  report->metrics.push_back(
      {"column_store.decode_mbps", rs.bytes_decoded / rs.decode_seconds / 1e6,
       "MB/s"});
  report->metrics.push_back(
      {"column_store.io_mbps", rs.bytes_on_disk / rs.io_seconds / 1e6, "MB/s"});
  AddTiming(report, "query.filter_ms", filter_ms, "ms");
  AddTiming(report, "query.aggregate_ms", aggregate_ms, "ms");

  std::vector<CodecInput> columns;
  if (!full.empty()) {
    const lsm::MemTable& mem = full.front();
    for (size_t c = 0; c < in.ncols; ++c) {
      CodecInput ci;
      ci.name = "memtable." + ColumnName(c);
      ci.desc = fcbench::DataDesc::Make(fcbench::DType::kFloat64,
                                        {mem.rows()}, in.precision_digits);
      ci.bytes.Append(mem.column(c).data(), mem.rows() * sizeof(double));
      columns.push_back(std::move(ci));
    }
  }
  return columns;
}

}  // namespace perfbench

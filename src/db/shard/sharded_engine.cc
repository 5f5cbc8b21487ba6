#include "db/shard/sharded_engine.h"

#include <algorithm>
#include <cstring>

#include "db/column_store.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "util/failpoint.h"
#include "util/fs.h"
#include "util/timer.h"

namespace fcbench::db::shard {
namespace {

constexpr const char* kShardsFileName = "SHARDS";
constexpr const char* kShardsMagic = "fcbench-shards v1";

/// splitmix64 finalizer: full-avalanche mix so adjacent series keys
/// (the common "series 0..N" layout) spread uniformly across shards
/// instead of striping.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::string ShardDirName(size_t k) { return "shard-" + std::to_string(k); }

/// `"<magic>\nnum_shards <N>\n"`. Tiny and human-readable on purpose:
/// the file exists to make a shard-count mismatch a loud, attributable
/// refusal instead of silent re-routing.
std::string EncodeShardsFile(size_t num_shards) {
  return std::string(kShardsMagic) + "\nnum_shards " +
         std::to_string(num_shards) + "\n";
}

Result<size_t> ParseShardsFile(const std::string& path, ByteSpan data) {
  const std::string text(reinterpret_cast<const char*>(data.data()),
                         data.size());
  const std::string magic_line = std::string(kShardsMagic) + "\n";
  if (text.rfind(magic_line, 0) != 0) {
    return Status::Corruption("shard: bad SHARDS header in " + path);
  }
  const std::string key = "num_shards ";
  const size_t pos = text.find(key, magic_line.size());
  if (pos == std::string::npos) {
    return Status::Corruption("shard: no num_shards in " + path);
  }
  size_t num = 0;
  const char* p = text.c_str() + pos + key.size();
  while (*p >= '0' && *p <= '9') num = num * 10 + static_cast<size_t>(*p++ - '0');
  if (num == 0) {
    return Status::Corruption("shard: num_shards 0 in " + path);
  }
  return num;
}

Status Annotate(size_t shard, const Status& st) {
  if (st.ok()) return st;
  return Status(st.code(),
                "shard " + std::to_string(shard) + ": " + st.message());
}

}  // namespace

Result<std::unique_ptr<ShardedIngestEngine>> ShardedIngestEngine::Open(
    const std::string& dir, const std::vector<lsm::ColumnDef>& schema,
    const ShardOptions& options) {
  FCB_RETURN_IF_ERROR(fs::CreateDir(dir));

  // Resolve the shard count against the pinned SHARDS file. The count
  // decides routing, so it must never drift across reopens.
  const std::string shards_path = fs::JoinPath(dir, kShardsFileName);
  size_t num_shards = options.num_shards;
  if (fs::FileExists(shards_path)) {
    FCB_ASSIGN_OR_RETURN(Buffer raw, fs::ReadFile(shards_path));
    FCB_ASSIGN_OR_RETURN(size_t stored,
                         ParseShardsFile(shards_path, raw.span()));
    if (num_shards != 0 && num_shards != stored) {
      return Status::InvalidArgument(
          "shard: store at " + dir + " has " + std::to_string(stored) +
          " shards, reopen asked for " + std::to_string(num_shards) +
          " — re-routing existing keys is refused");
    }
    num_shards = stored;
  } else {
    if (num_shards == 0) {
      return Status::InvalidArgument(
          "shard: num_shards must be >= 1 for a new store");
    }
    const std::string body = EncodeShardsFile(num_shards);
    FCB_RETURN_IF_ERROR(fs::WriteFileAtomic(
        shards_path,
        ByteSpan(reinterpret_cast<const uint8_t*>(body.data()), body.size()),
        /*durable=*/true));
  }

  auto eng = std::unique_ptr<ShardedIngestEngine>(new ShardedIngestEngine());
  eng->dir_ = dir;
  eng->schema_ = schema;
  eng->opt_ = options;

  const size_t quota = options.shard_quota_bytes != 0
                           ? options.shard_quota_bytes
                           : 2 * options.engine.memtable_bytes;
  const size_t total = options.total_budget_bytes != 0
                           ? options.total_budget_bytes
                           : num_shards * quota;
  eng->budget_ = std::make_unique<MemoryBudget>(num_shards, total, quota);

  eng->shards_.reserve(num_shards);
  for (size_t k = 0; k < num_shards; ++k) {
    lsm::EngineOptions shard_opt = options.engine;
    // Flushed bytes return to the admission pool. The callback holds a
    // raw budget pointer: shards_ is declared after budget_, so every
    // shard engine (and with it any in-flight flush) is destroyed
    // before the budget is.
    MemoryBudget* budget = eng->budget_.get();
    shard_opt.on_memtable_released = [budget, k](size_t bytes) {
      budget->Release(k, bytes);
    };
    auto opened = lsm::IngestEngine::Open(
        fs::JoinPath(dir, ShardDirName(k)), schema, shard_opt);
    if (!opened.ok()) return Annotate(k, opened.status());
    eng->shards_.push_back(std::move(opened).value());
    // Recovery accounting: WAL replay may have refilled the memtable
    // before any append was admitted. Charged unchecked — it can push
    // the shard over quota, and appenders then wait for flushes to
    // drain it back under.
    const uint64_t buffered = eng->shards_.back()->buffered_bytes();
    if (buffered > 0) {
      eng->budget_->ChargeUnchecked(k, static_cast<size_t>(buffered));
    }
  }
  return eng;
}

ShardedIngestEngine::~ShardedIngestEngine() { Close(); }

size_t ShardedIngestEngine::ShardOf(uint64_t series_key) const {
  return static_cast<size_t>(Mix64(series_key) % shards_.size());
}

Status ShardedIngestEngine::Append(uint64_t series_key,
                                   const std::vector<double>& row) {
  return AppendBatch(series_key, row);
}

Status ShardedIngestEngine::AppendBatch(
    uint64_t series_key, const std::vector<double>& rows_row_major) {
  return AppendImpl(series_key, rows_row_major, nullptr);
}

Status ShardedIngestEngine::AppendBatchUntil(
    uint64_t series_key, const std::vector<double>& rows_row_major,
    std::chrono::steady_clock::time_point deadline) {
  return AppendImpl(series_key, rows_row_major, &deadline);
}

Status ShardedIngestEngine::AppendImpl(
    uint64_t series_key, const std::vector<double>& rows_row_major,
    const std::chrono::steady_clock::time_point* deadline) {
  const size_t ncols = schema_.size();
  if (ncols == 0 || rows_row_major.empty() ||
      rows_row_major.size() % ncols != 0) {
    return Status::InvalidArgument(
        "shard: batch size " + std::to_string(rows_row_major.size()) +
        " is not a non-zero multiple of " + std::to_string(ncols) +
        " columns");
  }
  obs::ScopedSpan span("shard.append", series_key,
                       rows_row_major.size() / ncols);
  size_t k;
  {
    obs::ScopedSpan route_span("shard.route", series_key);
    k = ShardOf(series_key);
    FCB_FAIL_RETURN("shard.route", dir_);
  }
  span.SetTag(ShardDirName(k).c_str());

  // Admission BEFORE the snapshot gate: a blocked appender must never
  // hold the gate shared, or it would stall snapshot reads for up to
  // its deadline.
  const size_t bytes = rows_row_major.size() * sizeof(double);
  {
    const fail::Decision d = FCB_FAILPOINT("shard.admit");
    if (d.fire) {
      return Status::Overloaded("injected fault at shard.admit (" +
                                ShardDirName(k) + ")");
    }
  }
  static obs::Counter* admitted =
      obs::MetricsRegistry::Global().GetCounter("shard.append.admitted");
  static obs::Counter* rejected =
      obs::MetricsRegistry::Global().GetCounter("shard.append.rejected");
  static obs::Histogram* wait_nanos =
      obs::MetricsRegistry::Global().GetHistogram(
          "shard.admission.wait_nanos", obs::Unit::kNanos);
  Status admit;
  {
    obs::ScopedSpan admit_span("shard.admission", k, bytes);
    if (deadline != nullptr) {
      Timer wait_timer;
      admit = budget_->AcquireUntil(k, bytes, *deadline);
      wait_nanos->Record(wait_timer.ElapsedNanos());
    } else {
      admit = budget_->TryAcquire(k, bytes);
    }
    if (!admit.ok()) admit_span.SetTag("rejected");
  }
  if (!admit.ok()) {
    rejected->Increment();
    return admit;
  }
  admitted->Increment();

  Status st;
  {
    std::shared_lock<std::shared_mutex> gate(snap_mu_);
    st = shards_[k]->AppendBatch(rows_row_major);
  }
  if (!st.ok()) {
    // Rejected batches buffer nothing; give the charge back at once.
    // Acknowledged batches stay charged until their flush publishes.
    budget_->Release(k, bytes);
    return Annotate(k, st);
  }
  return Status::OK();
}

Result<std::vector<std::vector<double>>>
ShardedIngestEngine::SnapshotReadShards(const std::string& column) const {
  // Exclusive on the gate: no append is between WAL commit and memtable
  // insert while we look, so each shard's row count is a batch-aligned
  // cut, and all cuts are taken at the same instant.
  obs::ScopedSpan span("shard.read", shards_.size());
  std::vector<uint64_t> cut(shards_.size(), 0);
  {
    std::unique_lock<std::shared_mutex> gate(snap_mu_);
    for (size_t k = 0; k < shards_.size(); ++k) cut[k] = shards_[k]->rows();
  }

  // Shards are append-only, so rows [0, cut[k]) are immutable: reading
  // off-gate and truncating yields the state as of the capture instant
  // even while ingest continues. (A concurrent scrub that quarantines a
  // segment can shrink a shard below its cut — the one documented
  // exception.) Every shard's read is queued into one batch, so the
  // pages of all shards and segments are one flat task list: no
  // participant idles behind the largest shard.
  ColumnReadBatch batch;
  std::vector<Status> status(shards_.size());
  std::vector<size_t> output(shards_.size(), 0);
  for (size_t k = 0; k < shards_.size(); ++k) {
    auto r = shards_[k]->AddColumnRead(column, &batch);
    if (r.ok()) {
      output[k] = r.value();
    } else {
      status[k] = r.status();
    }
  }
  const std::vector<Status> read = batch.Run();
  std::vector<std::vector<double>> out(shards_.size());
  for (size_t k = 0; k < shards_.size(); ++k) {
    if (status[k].ok()) status[k] = read[output[k]];
    if (!status[k].ok()) return Annotate(k, status[k]);
    out[k] = std::move(batch.output(output[k]));
    if (out[k].size() > cut[k]) out[k].resize(cut[k]);
  }
  return out;
}

Result<std::vector<double>> ShardedIngestEngine::ReadColumn(
    const std::string& column) const {
  FCB_ASSIGN_OR_RETURN(std::vector<std::vector<double>> shards,
                       SnapshotReadShards(column));
  std::vector<double> out;
  size_t total = 0;
  for (const auto& v : shards) total += v.size();
  out.reserve(total);
  for (const auto& v : shards) out.insert(out.end(), v.begin(), v.end());
  return out;
}

Status ShardedIngestEngine::Flush() {
  // Phase 1: start every shard's flush. With background_flush they
  // overlap on the shared pool; scheduling is cheap (memtable swap).
  // A degraded shard reports its sticky error but must not stop the
  // siblings from flushing.
  Status first;
  for (size_t k = 0; k < shards_.size(); ++k) {
    const Status st = shards_[k]->ScheduleFlush();
    if (!st.ok() && first.ok()) first = Annotate(k, st);
  }
  // Phase 2: wait for all of them, from the caller's thread (never from
  // a pool task — the pool may have a single worker).
  for (size_t k = 0; k < shards_.size(); ++k) {
    const Status st = shards_[k]->WaitForFlush();
    if (!st.ok() && first.ok()) first = Annotate(k, st);
  }
  return first;
}

ScrubSummary ShardedIngestEngine::Scrub() {
  ScrubSummary sum;
  sum.shards.reserve(shards_.size());
  // Serial across shards; each shard's Scrub parallelises its segment
  // verification internally on the shared pool.
  for (size_t k = 0; k < shards_.size(); ++k) {
    ShardScrubReport entry;
    entry.shard = k;
    auto r = shards_[k]->Scrub();
    if (r.ok()) {
      entry.report = std::move(r).value();
      sum.segments_checked += entry.report.segments_checked;
      sum.segments_quarantined += entry.report.quarantined_ids.size();
      if (!entry.report.quarantined_ids.empty() || !entry.report.wal_clean) {
        sum.all_clean = false;
      }
    } else {
      entry.status = Annotate(k, r.status());
      sum.all_clean = false;
    }
    sum.shards.push_back(std::move(entry));
  }
  return sum;
}

HealthReport ShardedIngestEngine::Health() const {
  HealthReport report;
  report.shards.reserve(shards_.size());
  for (size_t k = 0; k < shards_.size(); ++k) {
    ShardHealth h;
    h.shard = k;
    h.error = shards_[k]->background_error();
    h.read_only = !h.error.ok();
    h.rows = shards_[k]->rows();
    h.buffered_bytes = shards_[k]->buffered_bytes();
    h.quarantined_segments = shards_[k]->quarantined().size();
    h.stats = shards_[k]->stats();
    if (h.read_only) ++report.degraded_shards;
    report.shards.push_back(std::move(h));
  }
  report.budget_used = budget_->used();
  report.budget_total = budget_->total_bytes();
  return report;
}

Status ShardedIngestEngine::Close() {
  {
    std::lock_guard<std::mutex> g(close_mu_);
    if (closed_) return Status::OK();
    closed_ = true;
  }
  // Unblock deadline-waiting appenders first (they would otherwise ride
  // out their deadlines against a budget that will never drain) ...
  budget_->Shutdown();
  // ... then interrupt every shard's retry backoff BEFORE closing any:
  // shutdown latency is one backoff wait, not one per shard.
  for (auto& s : shards_) s->InterruptRetries();
  Status first;
  for (size_t k = 0; k < shards_.size(); ++k) {
    const Status st = shards_[k]->Close();
    if (!st.ok() && first.ok()) first = Annotate(k, st);
  }
  return first;
}

uint64_t ShardedIngestEngine::rows() const {
  uint64_t total = 0;
  for (const auto& s : shards_) total += s->rows();
  return total;
}

}  // namespace fcbench::db::shard

#ifndef FCBENCH_DB_SHARD_SHARDED_ENGINE_H_
#define FCBENCH_DB_SHARD_SHARDED_ENGINE_H_

#include <chrono>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "db/lsm/lsm_engine.h"
#include "util/budget.h"
#include "util/status.h"

namespace fcbench::db::shard {

/// Options for the sharded multi-tenant ingest engine. The per-shard
/// engine options apply to every shard identically (each shard is a
/// full IngestEngine in its own subdirectory).
struct ShardOptions {
  /// Number of shards. On reopen 0 adopts the stored count; a non-zero
  /// value that disagrees with the stored count is rejected — silently
  /// re-routing keys to different shards would orphan their history.
  size_t num_shards = 4;
  /// Admission quota per shard: max bytes a single shard may hold
  /// buffered (unflushed) at once. 0 derives 2x the shard's memtable
  /// watermark, i.e. one full memtable plus one being flushed.
  size_t shard_quota_bytes = 0;
  /// Process-wide admission budget across all shards. 0 derives
  /// num_shards * shard_quota_bytes, which makes the quotas independent:
  /// a degraded shard pinning its full quota can never starve a sibling.
  /// A smaller total creates deliberate global contention.
  size_t total_budget_bytes = 0;
  /// Per-shard engine configuration (WAL sync, memtable watermark,
  /// retries, compaction...). on_memtable_released is overwritten: the
  /// sharded engine wires it to the admission budget.
  lsm::EngineOptions engine;
};

/// Health of one shard, as aggregated by ShardedIngestEngine::Health.
struct ShardHealth {
  size_t shard = 0;
  /// True once the shard degraded to sticky read-only (its appends fail
  /// fast with `error` while siblings keep accepting writes).
  bool read_only = false;
  /// The shard's sticky background error (OK when healthy).
  Status error;
  uint64_t rows = 0;
  /// Bytes buffered in the shard's memtables — what the shard currently
  /// holds of its admission quota.
  uint64_t buffered_bytes = 0;
  uint64_t quarantined_segments = 0;
  /// The shard's per-engine activity totals (appends, flushes,
  /// compactions, retries) — IngestEngine::stats() at report time.
  lsm::EngineStats stats;
};

struct HealthReport {
  std::vector<ShardHealth> shards;
  size_t degraded_shards = 0;
  /// Admission budget occupancy at report time.
  size_t budget_used = 0;
  size_t budget_total = 0;
  bool all_healthy() const { return degraded_shards == 0; }
};

/// One shard's scrub outcome inside a coordinated Scrub pass.
struct ShardScrubReport {
  size_t shard = 0;
  /// Non-OK when the shard's scrub itself failed to run (the report is
  /// then default-initialised).
  Status status;
  lsm::ScrubReport report;
};

struct ScrubSummary {
  std::vector<ShardScrubReport> shards;
  uint64_t segments_checked = 0;
  uint64_t segments_quarantined = 0;
  /// False when any shard quarantined a segment, stopped WAL replay
  /// early, or failed to scrub at all.
  bool all_clean = true;
};

/// Sharded multi-tenant ingest engine: hash-partitions series keys
/// across N independent IngestEngine shards (subdirectories
/// `<dir>/shard-<k>/`) and makes overload and partial failure
/// first-class:
///
///  - Admission control. Every append charges its batch bytes against a
///    per-shard quota and a process-wide budget (util/budget.h) before
///    touching the shard. Over budget, AppendBatch fails fast with a
///    typed kOverloaded status; AppendBatchUntil instead blocks on a
///    condition variable until bytes drain, the caller's deadline
///    passes, or Close() — never a sleep-poll. Bytes return to the pool
///    when the owning shard publishes its flushed memtable.
///
///  - Fault isolation. A shard that exhausts its IO retries degrades
///    itself to sticky read-only; siblings keep accepting writes.
///    Health() aggregates per-shard state (root-cause error included),
///    and Scrub() fans the PR-6 quarantine protocol across shards.
///
///  - Snapshot-consistent cross-shard reads. SnapshotReadShards briefly
///    gates appenders out (shared_mutex), captures every shard's row
///    count at one instant, then reads the shards concurrently off-gate
///    and truncates each to its captured count — no torn batches, no
///    shard ahead of another relative to the capture instant.
///
///  - Coordinated Flush/Close. Flush schedules every shard's background
///    flush first (they overlap on ThreadPool::Shared()) and only then
///    waits; Close interrupts every shard's retry backoff before
///    closing any, so shutdown latency is one backoff, not N.
///
/// The shard count is pinned in a `SHARDS` file at the top level:
/// reopening with a different count is refused rather than silently
/// re-routing keys.
class ShardedIngestEngine {
 public:
  static Result<std::unique_ptr<ShardedIngestEngine>> Open(
      const std::string& dir, const std::vector<lsm::ColumnDef>& schema,
      const ShardOptions& options = {});

  /// Closes via Close() (best effort — errors are dropped; call Close()
  /// first to observe them).
  ~ShardedIngestEngine();

  ShardedIngestEngine(const ShardedIngestEngine&) = delete;
  ShardedIngestEngine& operator=(const ShardedIngestEngine&) = delete;

  /// One row for `series_key` (one value per schema column). Fail-fast
  /// admission: kOverloaded when the owning shard is over quota.
  Status Append(uint64_t series_key, const std::vector<double>& row);

  /// Batch append routed to `series_key`'s shard, fail-fast admission.
  /// The whole batch lands on ONE shard (a series never spans shards).
  /// Errors: kOverloaded (admission), the shard's sticky read-only
  /// error (degraded shard — siblings are unaffected), or the shard's
  /// WAL commit failure (batch rejected, shard stays writable).
  Status AppendBatch(uint64_t series_key,
                     const std::vector<double>& rows_row_major);

  /// Like AppendBatch, but over-budget waits (condition variable, no
  /// polling) until the charge fits or `deadline` passes (kOverloaded,
  /// "deadline exceeded"). A batch larger than the shard quota can
  /// never be admitted and is rejected immediately.
  Status AppendBatchUntil(uint64_t series_key,
                          const std::vector<double>& rows_row_major,
                          std::chrono::steady_clock::time_point deadline);

  /// Snapshot-consistent read: one vector per shard, each truncated to
  /// the shard's row count captured at a single instant with no append
  /// in flight. Concurrent ingest never tears a batch into the result.
  /// The cut is captured under the gate; then every shard's read
  /// (IngestEngine::AddColumnRead) is queued into one ColumnReadBatch,
  /// whose two ParallelFors on ThreadPool::Shared() (the calling thread
  /// taking part) open every segment of every shard and then decode
  /// every page of them all, one task per page. Every shard is read even
  /// when one fails; the error returned is the lowest-indexed failing
  /// shard's, annotated with that index. Caveat: a scrub that quarantines a
  /// segment between capture and read can make a shard return fewer
  /// rows than captured.
  Result<std::vector<std::vector<double>>> SnapshotReadShards(
      const std::string& column) const;

  /// Convenience: SnapshotReadShards concatenated in shard order.
  Result<std::vector<double>> ReadColumn(const std::string& column) const;

  /// Coordinated flush: schedules every shard's flush (overlapping on
  /// the shared pool), then waits for all. Returns the first failing
  /// shard's error annotated with its index; the remaining shards are
  /// still flushed.
  Status Flush();

  /// Integrity scrub across all shards (each shard's Scrub runs the
  /// PR-6 verify + quarantine protocol). Always returns a summary; a
  /// shard whose scrub could not run is reported in its entry's status.
  ScrubSummary Scrub();

  /// Aggregated health: per-shard read-only state with root cause,
  /// rows, buffered bytes, quarantine counts, and budget occupancy.
  HealthReport Health() const;

  /// Interrupts retry backoffs on every shard, shuts the admission
  /// budget down (waking blocked appenders with kOverloaded), then
  /// closes shards. Idempotent; returns the first shard close error.
  Status Close();

  /// The shard `series_key` routes to (stable across reopen — the
  /// SHARDS file pins the count).
  size_t ShardOf(uint64_t series_key) const;

  size_t num_shards() const { return shards_.size(); }
  /// Total rows across all shards.
  uint64_t rows() const;
  /// Direct access to one shard's engine (tests, per-shard scrubbing).
  lsm::IngestEngine* shard(size_t k) { return shards_[k].get(); }
  const MemoryBudget& budget() const { return *budget_; }
  const std::string& dir() const { return dir_; }

 private:
  ShardedIngestEngine() = default;

  /// Admission + routed append shared by the fail-fast and deadline
  /// paths. `deadline` null = TryAcquire.
  Status AppendImpl(
      uint64_t series_key, const std::vector<double>& rows_row_major,
      const std::chrono::steady_clock::time_point* deadline);

  std::string dir_;
  std::vector<lsm::ColumnDef> schema_;
  ShardOptions opt_;
  /// Declared before shards_: shard engines hold on_memtable_released
  /// callbacks into the budget, so they must be destroyed first
  /// (members destruct in reverse declaration order).
  std::unique_ptr<MemoryBudget> budget_;
  std::vector<std::unique_ptr<lsm::IngestEngine>> shards_;
  /// Snapshot gate: appenders hold it shared across the shard append;
  /// SnapshotReadShards holds it exclusive only while capturing row
  /// counts. See SnapshotReadShards.
  mutable std::shared_mutex snap_mu_;
  std::mutex close_mu_;
  bool closed_ = false;
};

}  // namespace fcbench::db::shard

#endif  // FCBENCH_DB_SHARD_SHARDED_ENGINE_H_

#ifndef FCBENCH_DB_LSM_LSM_ENGINE_H_
#define FCBENCH_DB_LSM_LSM_ENGINE_H_

#include <array>
#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/format.h"
#include "db/lsm/memtable.h"
#include "db/lsm/wal.h"
#include "util/status.h"

namespace fcbench::db {
class ColumnReadBatch;
}  // namespace fcbench::db

namespace fcbench::db::lsm {

/// One column of the engine's fixed schema.
struct ColumnDef {
  std::string name;
  DType dtype = DType::kFloat64;
  /// BUFF's lossless decimal bound; 0 = full precision.
  int precision_digits = 0;
};

struct EngineOptions {
  /// Memtable watermark: a flush is scheduled once the buffered rows
  /// exceed this many bytes.
  size_t memtable_bytes = 1 << 20;
  /// WAL segment rotation watermark.
  size_t wal_segment_bytes = 1 << 20;
  /// fsync the WAL on every commit (group commit per AppendBatch). Off
  /// trades crash durability of the tail for raw append speed.
  bool sync_on_commit = true;
  /// Flush on the shared ThreadPool instead of the appending thread.
  bool background_flush = true;
  /// Method for freshly flushed segments; the online selector by default
  /// (each column probes its own bytes, PR 4).
  std::string flush_compressor = "auto";
  /// Method for compacted (cold) segments; ratio-biased re-compression.
  std::string compact_compressor = "auto-ratio";
  /// PagedFile page size inside segments.
  size_t page_size = 64 << 10;
  /// Auto-compaction trigger: after a flush, a trailing run of at least
  /// this many small segments is merged into one. 0 disables.
  /// A segment is "small" while it holds at most 4 memtables' rows.
  size_t compact_fanout = 4;
  /// Attempts for each background IO step (segment write, manifest
  /// publish, compaction write). Only transient IO errors are retried;
  /// ENOSPC and corruption fail immediately. Minimum 1.
  int io_retry_attempts = 3;
  /// Base of the exponential backoff between retries (1, 2, 4, ... ms);
  /// 0 retries immediately (tests). Backoff waits are interruptible:
  /// Close()/destruction cancels them instead of sleeping out the ladder.
  int io_retry_backoff_ms = 1;
  /// Invoked off-lock, from the flushing thread, after a flush publishes
  /// its segment, with the byte size of the memtable that was released.
  /// The sharded engine wires this to its admission budget so flushed
  /// bytes return to the pool; a failed flush (memtable retained,
  /// engine degraded) deliberately does NOT fire it.
  std::function<void(size_t bytes)> on_memtable_released;
  /// Stall-watchdog budget for flush/compaction/scrub, in milliseconds:
  /// an operation still running past this fires a `stall` event, the
  /// obs.watchdog.stalls counter, and a stderr dump of open spans plus
  /// the trace collector's event tail. 0 = the FCBENCH_WATCHDOG_MS
  /// default (30 s); negative disables the watchdog for this engine.
  int64_t watchdog_budget_ms = 0;
};

/// Cancellation channel for RetryIo's exponential-backoff waits: Close()
/// and the destructor set `cancelled` and notify, so shutdown interrupts
/// a retry ladder mid-wait instead of sleeping it out. Separate from the
/// engine mutex because RetryIo runs both with and without mu_ held.
struct RetryCancel {
  std::mutex mu;
  std::condition_variable cv;
  bool cancelled = false;
};

struct SegmentInfo {
  uint64_t id = 0;
  uint64_t rows = 0;
  /// 0 for fresh flushes; each compaction of a run records
  /// max(levels) + 1 — the tier of the merged segment.
  uint32_t level = 0;
};

/// A segment the scrubber found corrupt and moved aside. Its files live
/// under `<dir>/quarantine/` for post-mortem; the data is no longer
/// served (it cannot be trusted) but the rest of the store stays online.
struct QuarantinedSegment {
  uint64_t id = 0;
  /// Rows the segment held when it was live (now unavailable).
  uint64_t rows = 0;
  /// First verification failure, as recorded in the engine manifest.
  std::string reason;
};

/// Point-in-time per-engine activity totals (IngestEngine::stats()).
/// Unlike the process-wide obs::MetricsRegistry — which aggregates over
/// every engine in the process — these are scoped to one engine, so the
/// sharded engine's Health() can attribute work to individual shards.
/// Every field except append_nanos counts the same events as one
/// registry counter (the field-to-counter table is in lsm_engine.cc);
/// all fields are uint64_t.
struct EngineStats {
  uint64_t append_batches = 0;
  uint64_t append_rows = 0;
  /// Wall nanos spent inside AppendBatch (WAL commit + memtable insert).
  uint64_t append_nanos = 0;
  uint64_t flushes = 0;          // published segments
  uint64_t flush_failures = 0;   // flushes that exhausted retries
  uint64_t flush_raw_bytes = 0;  // memtable bytes entering flushes
  uint64_t flush_segment_bytes = 0;  // compressed bytes leaving flushes
  uint64_t compactions = 0;
  uint64_t compact_in_bytes = 0;
  uint64_t compact_out_bytes = 0;
  /// RetryIo attempts beyond the first try (i.e. actual retries).
  uint64_t retry_attempts = 0;
  uint64_t quarantined_segments = 0;
};

/// Result of one IngestEngine::Scrub pass.
struct ScrubReport {
  /// Segments whose files were re-read and checksum-verified.
  uint64_t segments_checked = 0;
  /// WAL records that replayed with valid checksums.
  uint64_t wal_records_verified = 0;
  /// False when WAL replay stopped early (torn tail or corrupt record).
  bool wal_clean = true;
  /// Segments quarantined by THIS pass (already-quarantined ones are
  /// not re-checked).
  std::vector<uint64_t> quarantined_ids;
  /// Human-readable findings (one line per anomaly).
  std::vector<std::string> notes;
};

/// Crash-safe log-structured ingest engine (the ROADMAP item-1 tentpole):
///
///   append -> WAL (checksummed, fsync-batched, rotated)
///          -> MemTable (per-column buffer, size watermark)
///          -> flush on ThreadPool::Shared() into a ColumnStore segment
///             compressed by the online selector
///          -> tiered compaction merging small segments under auto-ratio
///
/// Layout under `dir`:
///   MANIFEST          engine state (schema, segment list, WAL floor),
///                     checksummed, published atomically
///   wal-<seq>.log     WAL segments (db/lsm/wal.h)
///   seg-<id>.*        one ColumnStore (manifest + .col files) per
///                     flushed segment
///
/// Durability protocol. Every batch is durable once AppendBatch returns
/// (WAL committed, one sync per batch: fdatasync inside the segment's
/// zero tail, fsync when the tail grows; see Wal). A flush publishes in a strict
/// order: segment column files (atomic temp+rename+dir-fsync, via
/// PagedFile) -> segment ColumnStore manifest -> engine MANIFEST
/// (advancing the WAL floor) -> obsolete WAL segments deleted. A crash
/// between any two steps recovers to a consistent state: unreferenced
/// segment files are swept, and the WAL floor decides exactly which
/// records replay. Recovery seals the WAL where the replayed prefix
/// ends before any new record is written (see Wal), so rows acked after
/// one crash survive the next. Recovery is idempotent — recovering twice
/// yields an identical store.
class IngestEngine {
 public:
  /// Opens (creating or recovering) an engine at `dir`. On recovery the
  /// given schema must match the stored one; pass an empty schema to
  /// adopt the stored schema as-is.
  ///
  /// The first Open in a process also sets the process's allocator
  /// policy (ApplyEngineAllocatorPolicy, util/alloc_policy.h): on glibc,
  /// freed buffers under 32 MiB stay mapped, so a scan reuses the
  /// previous scan's pages instead of faulting fresh ones in. The cost
  /// is RSS: the process stays at its scan high-water mark instead of
  /// shrinking between scans (each arena keeps at most 64 MiB free at
  /// its top). ShardedIngestEngine opens its shards through here too.
  static Result<std::unique_ptr<IngestEngine>> Open(
      const std::string& dir, const std::vector<ColumnDef>& schema,
      const EngineOptions& options = {});

  /// Closes via Close(): interrupts retry backoffs and joins any
  /// in-flight flush. Does NOT flush the memtable: the WAL already made
  /// it durable, and the next Open replays it.
  ~IngestEngine();

  IngestEngine(const IngestEngine&) = delete;
  IngestEngine& operator=(const IngestEngine&) = delete;

  /// Appends one row (one value per schema column). Equivalent to a
  /// one-row AppendBatch — i.e. one WAL commit (and fsync) per call;
  /// batch appends to amortize the sync.
  Status Append(const std::vector<double>& row);

  /// Appends `rows_row_major.size() / num_columns` rows as one atomic,
  /// durable unit: a single WAL record and a single commit. Either every
  /// row of the batch survives a crash or none does.
  ///
  /// Ack contract: OK means exactly "this batch is durably committed".
  /// A failed WAL commit (e.g. ENOSPC — typed ResourceExhausted) rejects
  /// only this batch; the engine stays writable once the condition
  /// clears. A background flush/compaction failure that exhausts its
  /// retries degrades the engine to READ-ONLY: the first Append after it
  /// fails fast with the sticky root cause (see background_error()),
  /// while reads keep serving everything acknowledged so far.
  Status AppendBatch(const std::vector<double>& rows_row_major);

  /// Synchronously flushes the memtable into a new segment (waits for
  /// any in-flight background flush first). No-op when empty.
  Status Flush();

  /// Starts a flush without waiting for it to finish: waits out any
  /// flush already in flight, swaps the memtable, and (with
  /// background_flush) hands the compress+publish work to
  /// ThreadPool::Shared(). The coordinated multi-shard Flush uses this
  /// to overlap every shard's flush before waiting on any of them.
  /// Without background_flush the flush still runs inline here.
  Status ScheduleFlush();

  /// Waits until no background flush is in flight; returns the sticky
  /// background error, if any.
  Status WaitForFlush();

  /// One compaction round: merges the first adjacent run of >= 2 small
  /// segments into one, re-compressed with `compact_compressor`. OK
  /// no-op when nothing qualifies.
  Status Compact();

  /// All values of `column`, oldest first: flushed segments in order,
  /// then the flushing (immutable) memtable, then the live memtable.
  /// Keeps serving after a background error (read-only degradation):
  /// every acknowledged row is either in a published segment, in a
  /// memtable (WAL-backed), or both.
  ///
  /// Under the engine lock the read takes one pointer to the installed
  /// Version, the immutable memtable and a copy of the live memtable's
  /// column; segment files are then read off-lock. The Version's
  /// segment handles keep those files alive, so a compaction or scrub
  /// that installs a successor meanwhile never waits for the read: the
  /// last release of a retired segment drops (or quarantines) its
  /// files. The read runs as page tasks (ColumnReadBatch): every page
  /// decodes straight into its rows of the result, fanned out on
  /// ThreadPool::Shared() (whose callers never run queued tasks) and
  /// inline when called from a pool task.
  ///
  /// Open-once contract. A segment's column is opened (its manifest
  /// read, its file mapped read-only and validated) by the first read
  /// of it, or by a compaction merging it, and kept open in the segment
  /// handle until the segment is retired (compaction, quarantine) or
  /// the engine is destroyed; later reads only decode pages. An open
  /// column keeps serving from its mapping even if its file is later
  /// removed or replaced by rename: reads do not re-check the disk, and
  /// finding on-disk damage is Scrub's job. The engine never modifies a
  /// published column file in place; truncating one from outside is out
  /// of contract (the mapped reader would get SIGBUS).
  Result<std::vector<double>> ReadColumn(const std::string& column) const;

  /// ReadColumn's capture and page tasks, queued into `batch` rather
  /// than run: returns the index of the batch output that holds the
  /// column once batch->Run() reports it OK. The batch keeps the
  /// captured segments alive. The sharded engine queues every shard's
  /// read into one batch, so all their pages share one fan-out.
  Result<size_t> AddColumnRead(const std::string& column,
                               ColumnReadBatch* batch) const;

  /// Integrity scrub: re-reads every published segment and verifies its
  /// files against the checksums captured at write time (ColumnStore
  /// manifest v3), then re-verifies WAL record checksums. A segment that
  /// fails verification is removed from the serving set, recorded in the
  /// engine manifest, and its files are moved to `<dir>/quarantine/`;
  /// the remaining data keeps serving. Runs concurrently with appends,
  /// reads, flushes and compactions: it verifies the Version installed
  /// at its start, and takes the engine lock only to install each
  /// quarantine and for the WAL check. A quarantine is a new Version
  /// without the segment, installed only once the manifest recording it
  /// is durable; if that write fails, the scrub returns the error and
  /// the engine still serves the segment. The move happens at the last
  /// release of the segment's handle; while a read or compaction still
  /// holds it, the report carries a "quarantine move pending" note and
  /// that holder's release (or the next Open) moves the files.
  Result<ScrubReport> Scrub();

  /// Interrupts any in-flight RetryIo backoff wait immediately: the
  /// retry in progress gives up with an "interrupted" status instead of
  /// finishing its ladder. Idempotent; Close() calls it first. A
  /// coordinated multi-shard Close interrupts every shard before
  /// closing any, so total shutdown latency is one backoff wait, not N.
  void InterruptRetries();

  /// Interrupts retries, waits for in-flight flushes and compactions,
  /// frees the spare memtable and closes the WAL (reporting a failed
  /// final fsync). Does not wait for reads or scrubs: the segment
  /// handles they hold keep their files alive. Idempotent; the
  /// destructor calls it, so the engine must not be destroyed while a
  /// call on it runs. After Close the engine rejects appends, flushes,
  /// compactions and scrubs.
  Status Close();

  /// True once a background failure degraded the engine to read-only.
  bool read_only() const;
  /// The sticky background error (OK when healthy).
  Status background_error() const;
  /// Segments quarantined by scrubs, as recorded in the manifest.
  std::vector<QuarantinedSegment> quarantined() const;

  /// Total rows across segments and memtables.
  uint64_t rows() const;

  /// This engine's activity totals since Open (lock-free reads of
  /// relaxed atomics; safe concurrent with any operation).
  EngineStats stats() const;

  /// Bytes buffered in the live + immutable memtables (not yet published
  /// to a segment). The unit the sharded engine's admission budget
  /// charges.
  uint64_t buffered_bytes() const;

  std::vector<SegmentInfo> segments() const;
  const std::vector<ColumnDef>& schema() const { return schema_; }
  const std::string& dir() const { return dir_; }

 private:
  /// A published segment's SegmentInfo, file prefix, retirement fate
  /// and one lazily opened slot per schema column (ReadColumn's
  /// open-once contract; lsm_engine.cc). Its files and open columns
  /// stay until the last handle is released.
  struct Segment;
  using SegmentSet = std::vector<std::shared_ptr<const Segment>>;

  /// The published state: everything the engine MANIFEST records except
  /// the schema and the segment-id counter. Never changed once
  /// installed; a publisher copies the current Version, edits the copy
  /// and installs it (InstallLocked).
  struct Version {
    /// WAL segments below this sequence number hold only published rows.
    uint64_t wal_floor = 0;
    /// The serving set, oldest first.
    SegmentSet segments;
    std::vector<QuarantinedSegment> quarantined;
  };

  /// A swapped-out memtable and what publishing it needs: the segment id
  /// reserved for it and the WAL floor its publish advances to.
  struct FlushJob {
    std::shared_ptr<const MemTable> mem;  // null: nothing to flush
    uint64_t seg_id = 0;
    uint64_t floor = 0;
  };

  IngestEngine() = default;

  std::string SegPrefix(uint64_t id) const;
  /// Writes the MANIFEST for `v` once (no retry).
  Status WriteManifestLocked(const Version& v) const;
  /// The one publish path: writes the manifest for `next` under RetryIo
  /// and installs `next` as current_ only once that write succeeded.
  /// On failure nothing in memory has changed.
  Status InstallLocked(const std::string& what, Version next);
  /// Waits out any in-flight flush, then (if the memtable is non-empty)
  /// rotates the WAL, swaps the memtable to immutable and marks a flush
  /// in flight. The returned job's `mem` is null when there is no work.
  Result<FlushJob> PrepareFlushLocked(std::unique_lock<std::mutex>& lk);
  /// Runs `job`: on ThreadPool::Shared() with background_flush, else
  /// inline with `lk` dropped around it.
  void RunScheduledFlush(std::unique_lock<std::mutex>& lk, FlushJob job);
  /// The heavy half: compress + publish the job's memtable. Called
  /// off-lock (from the pool or the appending thread). Owns the job so
  /// that it drops its memtable reference in the publish critical
  /// section, before the next swap looks for the spare.
  void DoFlushAndPublish(FlushJob job);
  void DeleteWalBelowFloor();
  /// Merges the first adjacent run of >= min_run small segments.
  /// *merged reports whether anything happened.
  Status CompactOnce(size_t min_run, bool* merged);
  uint64_t SmallRowsThresholdLocked() const;
  Status ApplyWalRecord(const WalRecord& rec, bool* stop);
  /// Runs `op` under the engine's bounded retry-with-backoff policy;
  /// see the definition for the retry rules.
  template <typename Op>
  Status RetryIo(const std::string& what, Op&& op);
  /// Adds `n` to one stats() field and to its registry counter.
  template <uint64_t EngineStats::*Field>
  void Count(uint64_t n = 1);

  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  std::string dir_;
  std::vector<ColumnDef> schema_;
  EngineOptions opt_;

  std::unique_ptr<Wal> wal_;
  std::unique_ptr<MemTable> mem_;
  /// Memtable being flushed (the in-flight FlushJob's `mem`); readers
  /// still see it. Never mutated while set, nor while any copy of this
  /// pointer lives: only its last release clears it, into spare_.
  std::shared_ptr<const MemTable> imm_;
  /// A flushed memtable, cleared with its capacity kept, waiting to be
  /// the next live one (memtable.h). Shared with imm_'s deleter, which
  /// may run on a reader's thread without mu_, so it has its own lock
  /// (taken after mu_ when both are held) and never needs the engine.
  struct SpareMemTable {
    std::mutex mu;
    std::unique_ptr<MemTable> mem;
    bool closed = false;  // set by Close; later releases free, not park
  };
  const std::shared_ptr<SpareMemTable> spare_ =
      std::make_shared<SpareMemTable>();
  bool flush_inflight_ = false;
  bool compact_inflight_ = false;
  bool closed_ = false;
  /// Outstanding background flush tasks on the shared pool; the
  /// destructor waits for zero so a task never outlives the engine.
  int bg_tasks_ = 0;

  uint64_t next_segment_id_ = 0;
  /// The installed Version: the state the last successful manifest
  /// write recorded. Readers and scrubs copy this pointer under mu_ (a
  /// compaction copies its run's handles) and read segment files
  /// off-lock; publishers replace it only through InstallLocked.
  std::shared_ptr<const Version> current_;
  /// Sticky: set by a background flush/compaction failure that exhausted
  /// its retries. Appends fail fast with it; reads keep serving.
  Status bg_error_;
  /// Wakes RetryIo backoff waits on Close/InterruptRetries.
  mutable RetryCancel retry_cancel_;

  /// Relaxed-atomic cells behind stats(), one per EngineStats field;
  /// written via Count() from append, flush, compaction, retry and
  /// scrub paths without taking mu_.
  std::array<std::atomic<uint64_t>, sizeof(EngineStats) / sizeof(uint64_t)>
      stats_{};
};

}  // namespace fcbench::db::lsm

#endif  // FCBENCH_DB_LSM_LSM_ENGINE_H_

#ifndef FCBENCH_DB_LSM_WAL_H_
#define FCBENCH_DB_LSM_WAL_H_

#include <memory>
#include <string>
#include <vector>

#include "util/buffer.h"
#include "util/fs.h"
#include "util/status.h"

namespace fcbench::db::lsm {

/// Append-only, checksummed, length-prefixed write-ahead log with
/// segment rotation — the durability backbone of the LSM ingest engine
/// (ROADMAP item 1; the log-structured design of the LogBase paper in
/// PAPERS.md, rotation/recovery shape after YTsaurus' changelogs).
///
/// Segment file `wal-<seq, 6 digits>.log`:
///   u32 magic "FCWL" | varint version=1 | varint seq
/// followed by records, each:
///   u64 xxh64 over (len,type,payload) | u32 len | u8 type | payload
///
/// Durability contract: Append() only buffers; Commit() writes the
/// buffered batch to the current segment with one write and — when
/// `sync_on_commit` — one sync, so a commit covering many appended
/// records costs a single sync (group commit). After Commit() returns OK
/// with `sync_on_commit`, the batch survives power loss.
///
/// The sync is an fdatasync whenever the segment's size is already
/// durable. A durable segment keeps zeros ahead of its last record up to
/// the next fs::AppendFile::kZeroTailBytes (1 MiB) boundary, written by
/// the commit whose sync first needs the larger size (an fsync); the
/// commits that follow overwrite those zeros in place, so their
/// fdatasync commits no metadata. A fresh segment is only its header
/// until its first commit. Rotate() and Close() seal a segment: they cut
/// the zero tail and fsync, so only a segment that was live at a crash
/// can end in zeros.
///
/// Recovery contract (WalReader): a crash can tear the log only at the
/// tail. Replay verifies every record checksum and *truncates at the
/// first bad or incomplete record* — everything before it is returned,
/// everything after it is discarded, and the log as a whole is never
/// rejected. A missing segment in the sequence likewise ends replay at
/// the gap (prefix semantics). Recovered state is therefore always a
/// prefix of the committed record sequence. An all-zero remainder that
/// starts at a record boundary is a live segment's zero tail: a clean
/// end of that segment, and replay goes on into the next one. Zeros
/// followed by anything non-zero are still a torn or corrupt record.
///
/// Sealing at open (IngestEngine::Open): before any new record is
/// written, recovery cuts the segment where the replayed prefix ends back
/// to that end (Wal::Seal) and moves any later segment into quarantine/
/// (one exists only after corruption or a lost file). New records go to
/// the next segment, so a second crash replays the sealed prefix and then
/// everything acknowledged since, instead of stopping at the first
/// crash's torn tail.
class Wal {
 public:
  static constexpr uint32_t kMagic = 0x4C574346u;  // "FCWL"
  static constexpr uint64_t kVersion = 1;
  /// Record type tags. The WAL itself is payload-agnostic; the engine
  /// uses kTypeRows for serialized row batches.
  static constexpr uint8_t kTypeRows = 1;
  /// Upper bound a reader will accept for one record payload; a length
  /// field beyond it is treated as corruption, not an allocation request.
  static constexpr uint32_t kMaxRecordBytes = 64u << 20;

  struct Options {
    /// Rotate to a new segment once the current one exceeds this size.
    size_t segment_bytes = 4 << 20;
    /// fsync the segment on every Commit (group commit). Off = leave
    /// durability to the OS page cache (bench mode; crash loses tail).
    bool sync_on_commit = true;
  };

  /// "wal-000042.log" for seq 42 (zero padding keeps ListDir in order).
  static std::string SegmentFileName(uint64_t seq);
  /// Parses a segment file name; false for non-WAL names.
  static bool ParseSegmentFileName(const std::string& name, uint64_t* seq);

  /// Opens a WAL writing segment `seq` (created empty; recovery never
  /// appends to a pre-existing, possibly torn segment).
  static Result<std::unique_ptr<Wal>> Open(const std::string& dir,
                                           uint64_t seq,
                                           const Options& options);

  /// Seals segment `seq` at `length`, the end of its replayed prefix
  /// (WalReader::Replay::end_offset): cuts whatever follows (a torn
  /// record, a zero tail) and fsyncs, or rewrites a bare header when
  /// `length` does not cover a valid one. A no-op when the file already
  /// has that length.
  static Status Seal(const std::string& dir, uint64_t seq, uint64_t length);

  /// Buffers one record for the next Commit. Its payload is `head`
  /// followed by `body`: a caller whose record is a small prefix plus a
  /// large array it already holds passes the two apart, so the record is
  /// serialized once, straight into the pending batch, and hashed there.
  /// The bytes written are those of the one-span form with the two spans
  /// concatenated. InvalidArgument when the payload exceeds
  /// kMaxRecordBytes; the poison status once the WAL is poisoned.
  Status Append(uint8_t type, ByteSpan head, ByteSpan body = {});

  /// Writes all buffered records to the current segment, syncs once
  /// when configured, and rotates past the segment watermark.
  ///
  /// IO-error contract (group commit): a failed write or fsync REJECTS
  /// the whole buffered batch — the pending records are dropped, the
  /// error (typed; ENOSPC = ResourceExhausted) is returned, and the
  /// segment is healed by truncating back to the last committed offset
  /// (which also drops the zero tail; the next commit rewrites it),
  /// so earlier acknowledged records still replay and later commits
  /// append to a clean prefix. If healing itself fails the segment tail
  /// is in an unknown state and the WAL turns sticky-poisoned: every
  /// further Append/Commit fails fast with the root cause (recovery's
  /// prefix truncation still preserves all acknowledged records).
  Status Commit();

  /// Sticky error after a failed heal; OK in normal operation.
  const Status& poisoned() const { return poison_; }

  /// Forces subsequent records into a fresh segment (seq + 1). Used at
  /// flush time so every record of the flushed memtable lives in a
  /// segment strictly below the new sequence number.
  Status Rotate();

  /// Sequence number of the segment the next Commit writes to.
  uint64_t seq() const { return seq_; }

  Status Close();

 private:
  Status EnsureSegment();

  std::string dir_;
  Options options_;
  uint64_t seq_ = 0;
  bool segment_open_ = false;
  fs::AppendFile file_;
  Buffer pending_;
  Status poison_;  // sticky after a failed segment heal
};

/// One recovered WAL record.
struct WalRecord {
  uint64_t segment_seq = 0;
  /// Byte offset of the record in its segment file.
  uint64_t offset = 0;
  uint8_t type = 0;
  Buffer payload;
};

class WalReader {
 public:
  struct Replay {
    std::vector<WalRecord> records;
    /// Every segment seq >= min_seq on disk, ascending, including any
    /// past the point where replay stopped.
    std::vector<uint64_t> segments;
    /// The recovered prefix ends in segment `end_seq` after `end_offset`
    /// bytes: its header plus whole records, or 0 when even the header
    /// is bad. Meaningful only when `segments` is not empty.
    uint64_t end_seq = 0;
    uint64_t end_offset = 0;
    /// True when replay stopped early at a torn/corrupt record or a
    /// sequence gap (the returned records are still a valid prefix). A
    /// zero tail is a clean end and does not set it.
    bool truncated = false;
  };

  /// Replays every record of the `wal-*.log` segments in `dir` with
  /// seq >= min_seq, in sequence order, with the prefix-truncation
  /// semantics described on Wal.
  static Result<Replay> ReplayDir(const std::string& dir, uint64_t min_seq);
};

}  // namespace fcbench::db::lsm

#endif  // FCBENCH_DB_LSM_WAL_H_

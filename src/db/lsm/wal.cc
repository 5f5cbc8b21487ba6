#include "db/lsm/wal.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "obs/metrics.h"
#include "obs/span.h"
#include "util/bitio.h"
#include "util/failpoint.h"
#include "util/hash.h"
#include "util/timer.h"

namespace fcbench::db::lsm {

namespace {

/// Bytes of a record before the payload: u64 hash, u32 len, u8 type.
constexpr size_t kRecordHeaderBytes = 8 + 4 + 1;

/// u32 magic | varint version | varint seq.
Buffer SegmentHeader(uint64_t seq) {
  Buffer header;
  PutFixed(&header, Wal::kMagic);
  PutVarint64(&header, Wal::kVersion);
  PutVarint64(&header, seq);
  return header;
}

}  // namespace

std::string Wal::SegmentFileName(uint64_t seq) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "wal-%06llu.log",
                static_cast<unsigned long long>(seq));
  return buf;
}

bool Wal::ParseSegmentFileName(const std::string& name, uint64_t* seq) {
  if (name.size() < 9 || name.compare(0, 4, "wal-") != 0 ||
      name.compare(name.size() - 4, 4, ".log") != 0) {
    return false;
  }
  uint64_t v = 0;
  size_t digits = 0;
  for (size_t i = 4; i + 4 < name.size(); ++i) {
    if (name[i] < '0' || name[i] > '9') return false;
    v = v * 10 + static_cast<uint64_t>(name[i] - '0');
    ++digits;
  }
  if (digits == 0) return false;
  *seq = v;
  return true;
}

Result<std::unique_ptr<Wal>> Wal::Open(const std::string& dir, uint64_t seq,
                                       const Options& options) {
  auto wal = std::unique_ptr<Wal>(new Wal());
  wal->dir_ = dir;
  wal->options_ = options;
  wal->seq_ = seq;
  // The segment file itself is created lazily at the first Commit, so an
  // engine that never ingests leaves no empty WAL segments behind.
  return wal;
}

Status Wal::EnsureSegment() {
  if (segment_open_) return Status::OK();
  FCB_ASSIGN_OR_RETURN(
      file_, fs::AppendFile::Create(
                 fs::JoinPath(dir_, SegmentFileName(seq_)),
                 options_.sync_on_commit));
  // No sync here: a fresh segment stays header-sized until its first
  // commit syncs it (and writes its zero tail).
  FCB_RETURN_IF_ERROR(file_.Append(SegmentHeader(seq_).span()));
  segment_open_ = true;
  return Status::OK();
}

Status Wal::Seal(const std::string& dir, uint64_t seq, uint64_t length) {
  const std::string path = fs::JoinPath(dir, SegmentFileName(seq));
  const Buffer header = SegmentHeader(seq);
  if (length < header.size()) {
    // Not even the header survived: leave a valid, empty segment.
    FCB_ASSIGN_OR_RETURN(fs::AppendFile file,
                         fs::AppendFile::Create(path, /*durable=*/true));
    FCB_RETURN_IF_ERROR(file.Append(header.span()));
    return file.Close();
  }
  FCB_ASSIGN_OR_RETURN(uint64_t size, fs::FileSize(path));
  if (size == length) return Status::OK();
  return fs::TruncateFile(path, length);
}

Status Wal::Append(uint8_t type, ByteSpan head, ByteSpan body) {
  if (!poison_.ok()) return poison_;
  if (head.size() > kMaxRecordBytes ||
      body.size() > kMaxRecordBytes - head.size()) {
    return Status::InvalidArgument("wal: record payload too large");
  }
  // Serialize straight into the pending batch: hash | len | type |
  // head | body, where the hash covers everything after itself (hashed
  // in place) so a torn or bit-flipped record can never verify.
  const uint32_t len = static_cast<uint32_t>(head.size() + body.size());
  uint8_t* rec = pending_.ExtendUninit(kRecordHeaderBytes + len);
  uint8_t* covered = rec + sizeof(uint64_t);  // len | type | payload
  std::memcpy(covered, &len, sizeof(len));
  covered[sizeof(len)] = type;
  uint8_t* payload = covered + sizeof(len) + 1;
  if (!head.empty()) std::memcpy(payload, head.data(), head.size());
  if (!body.empty()) {
    std::memcpy(payload + head.size(), body.data(), body.size());
  }
  const uint64_t hash = XxHash64(covered, sizeof(len) + 1 + len);
  std::memcpy(rec, &hash, sizeof(hash));
  return Status::OK();
}

Status Wal::Commit() {
  if (!poison_.ok()) return poison_;
  if (pending_.empty()) return Status::OK();
  static obs::Counter* commits =
      obs::MetricsRegistry::Global().GetCounter("wal.commits");
  static obs::Histogram* batch_bytes =
      obs::MetricsRegistry::Global().GetHistogram("wal.batch_bytes",
                                                  obs::Unit::kBytes);
  static obs::Histogram* commit_nanos =
      obs::MetricsRegistry::Global().GetHistogram("wal.commit_nanos",
                                                  obs::Unit::kNanos);
  static obs::Histogram* sync_nanos =
      obs::MetricsRegistry::Global().GetHistogram("wal.sync_nanos",
                                                  obs::Unit::kNanos);
  static obs::Counter* commit_bytes =
      obs::MetricsRegistry::Global().GetCounter("wal.commit_bytes");
  commits->Increment();
  batch_bytes->Record(pending_.size());
  commit_bytes->Add(pending_.size());
  obs::ScopedSpan span("wal.commit", pending_.size());
  Timer commit_timer;
  Status st = EnsureSegment();
  uint64_t good = 0;
  if (st.ok()) {
    good = file_.offset();
    const fail::Decision inj = FCB_FAILPOINT("wal.append");
    if (inj.fire) {
      st = fail::InjectedStatus("wal.append", inj,
                                fs::JoinPath(dir_, SegmentFileName(seq_)));
    }
    if (st.ok()) {
      obs::ScopedSpan append_span("wal.append", pending_.size());
      st = file_.Append(pending_.span());
    }
    if (st.ok() && options_.sync_on_commit) {
      obs::ScopedSpan sync_span("wal.sync");
      Timer sync_timer;
      st = file_.Sync();
      sync_nanos->Record(sync_timer.ElapsedNanos());
    }
  }
  // The batch is consumed on success and REJECTED on failure: a caller
  // whose commit errored was never acknowledged, so its records must not
  // resurrect inside a later batch.
  pending_.Clear();
  if (!st.ok()) {
    if (segment_open_) {
      // Heal: an unknown prefix of the batch may have landed (ENOSPC,
      // short write). Truncating back to the last committed offset makes
      // the segment a clean prefix of acknowledged records again, so the
      // WAL stays consistent and later commits stay replayable.
      // A durable file fsyncs the cut before TruncateTo returns.
      Status heal = file_.TruncateTo(good);
      if (!heal.ok()) {
        poison_ = Status::IoError(
            "wal: segment " + SegmentFileName(seq_) +
            " poisoned by unhealed write failure (" + heal.message() +
            "); root cause: " + st.message());
      }
    }
    return st;
  }
  commit_nanos->Record(commit_timer.ElapsedNanos());
  if (file_.offset() >= options_.segment_bytes) {
    // A failed rotation must not fail the commit — the batch is already
    // durable. segment_open_ is false after any failure here, so the
    // next Commit simply retries creating the new segment.
    Status rotate_st = Rotate();
    (void)rotate_st;
  }
  return Status::OK();
}

Status Wal::Rotate() {
  obs::ScopedSpan span("wal.rotate", seq_ + 1);
  FCB_FAIL_RETURN("wal.rotate", fs::JoinPath(dir_, SegmentFileName(seq_)));
  obs::MetricsRegistry::Global().GetCounter("wal.rotations")->Increment();
  obs::RecordEvent("wal-rotate", dir_, seq_ + 1, file_.offset());
  Status st;
  if (segment_open_) {
    // Close seals a durable segment: it cuts the zero tail and fsyncs.
    st = file_.Close();
    // The handle is gone either way; leaving segment_open_ set on a
    // failed close would wedge every later append on a dead fd.
    segment_open_ = false;
  }
  ++seq_;
  // Create the new segment eagerly: every allocated sequence number gets
  // a file, so a hole inside the replayed range can only mean a lost
  // segment and WalReader's truncate-at-gap rule is always correct.
  Status ensure_st = EnsureSegment();
  if (st.ok()) st = ensure_st;
  return st;
}

Status Wal::Close() {
  Status st = Commit();
  if (segment_open_) {
    // AppendFile::Close seals a durable file (cuts the zero tail, fsyncs)
    // and reports a failure; the handle is released even on error.
    Status close_st = file_.Close();
    if (st.ok()) st = close_st;
    segment_open_ = false;
  }
  return st;
}

namespace {

/// Replays one segment file. Sets *end to the length of its valid
/// prefix, and *stop when replay of the whole log must end here: torn
/// tail, corrupt record, or a header that does not match the file name.
Status ReplaySegment(const std::string& path, uint64_t expect_seq,
                     std::vector<WalRecord>* out, uint64_t* end,
                     bool* stop) {
  auto raw = fs::ReadFile(path);
  if (!raw.ok()) {
    // An IO *error* reading an existing segment is a hard replay failure,
    // never silent truncation: treating it as a torn tail would let the
    // caller resume, advance the WAL floor past the unread records, and
    // garbage-collect acknowledged data. (A crash-truncated file still
    // reads fine and is handled by the torn-tail rules below.)
    return raw.status();
  }
  ByteSpan in = raw.value().span();
  size_t off = 0;
  uint32_t magic = 0;
  uint64_t version = 0, seq = 0;
  *end = 0;
  if (!GetFixed(in, &off, &magic) || magic != Wal::kMagic ||
      !GetVarint64(in, &off, &version) || version != Wal::kVersion ||
      !GetVarint64(in, &off, &seq) || seq != expect_seq) {
    *stop = true;  // torn or foreign header: nothing of this segment counts
    return Status::OK();
  }
  while (off < in.size()) {
    *end = off;
    uint64_t hash = 0;
    uint32_t len = 0;
    uint8_t type = 0;
    // Torn mid-header, implausible length, torn mid-payload, or a bad
    // checksum: the record does not verify.
    bool ok = in.size() - off >= kRecordHeaderBytes;
    if (ok) {
      GetFixed(in, &off, &hash);
      const size_t body_off = off;
      GetFixed(in, &off, &len);
      GetFixed(in, &off, &type);
      ok = len <= Wal::kMaxRecordBytes && len <= in.size() - off &&
           XxHash64(in.subspan(body_off, 4 + 1 + len)) == hash;
    }
    if (!ok) {
      // Only zeros from here on: the zero tail of a segment that was live
      // at the crash, a clean end. Anything else ends the log's prefix.
      *stop = !std::all_of(in.data() + *end, in.data() + in.size(),
                           [](uint8_t b) { return b == 0; });
      return Status::OK();
    }
    WalRecord rec;
    rec.segment_seq = seq;
    rec.offset = *end;
    rec.type = type;
    rec.payload = Buffer::FromSpan(in.subspan(off, len));
    off += len;
    out->push_back(std::move(rec));
  }
  *end = off;
  return Status::OK();
}

}  // namespace

Result<WalReader::Replay> WalReader::ReplayDir(const std::string& dir,
                                               uint64_t min_seq) {
  FCB_ASSIGN_OR_RETURN(std::vector<std::string> names, fs::ListDir(dir));
  Replay replay;
  for (const auto& name : names) {
    uint64_t seq = 0;
    if (Wal::ParseSegmentFileName(name, &seq) && seq >= min_seq) {
      replay.segments.push_back(seq);
    }
  }
  std::sort(replay.segments.begin(), replay.segments.end());
  const std::vector<uint64_t>& seqs = replay.segments;
  bool stop = false;
  for (size_t i = 0; i < seqs.size() && !stop; ++i) {
    if (i > 0 && seqs[i] != seqs[i - 1] + 1) {
      // A hole in the sequence: the prefix ends at the gap.
      replay.truncated = true;
      break;
    }
    replay.end_seq = seqs[i];
    FCB_RETURN_IF_ERROR(ReplaySegment(
        fs::JoinPath(dir, Wal::SegmentFileName(seqs[i])), seqs[i],
        &replay.records, &replay.end_offset, &stop));
  }
  replay.truncated = replay.truncated || stop;
  return replay;
}

}  // namespace fcbench::db::lsm

#include "db/lsm/lsm_engine.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <span>

#include "db/column_store.h"
#include "obs/event_trace.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "util/bitio.h"
#include "util/failpoint.h"
#include "util/hash.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace fcbench::db::lsm {

namespace {

constexpr uint32_t kEngineMagic = 0x4D4C4346u;  // "FCLM"
/// Engine manifest version: v2 added the quarantined-segment list (the
/// scrubber's findings must survive reopen, or a corrupt segment's files
/// would be swept as unreferenced and the evidence lost). v1 manifests
/// are still readable.
constexpr uint64_t kEngineVersion = 2;
constexpr const char* kManifestName = "MANIFEST";
/// Subdirectory corrupt segments are moved into (never deleted: the
/// files are evidence, and deletion cannot be undone by a false alarm).
constexpr const char* kQuarantineDir = "quarantine";
/// Longest run one compaction round will merge (bounds peak memory).
constexpr size_t kMaxCompactRun = 32;
/// Quarantine reasons are capped going into the manifest.
constexpr size_t kMaxReasonBytes = 256;

/// The errno a Status code corresponds to on the failure-injection and
/// real IO paths (failpoints inject EIO and ENOSPC); tags RetryIo
/// attempt spans so a trace shows WHY each attempt failed.
int StatusErrno(StatusCode code) {
  switch (code) {
    case StatusCode::kIoError:
      return EIO;
    case StatusCode::kResourceExhausted:
      return ENOSPC;
    case StatusCode::kCorruption:
      return EBADMSG;
    default:
      return 0;
  }
}

const char* StatusErrnoName(StatusCode code) {
  switch (code) {
    case StatusCode::kIoError:
      return "EIO";
    case StatusCode::kResourceExhausted:
      return "ENOSPC";
    case StatusCode::kCorruption:
      return "EBADMSG";
    default:
      return "err";
  }
}

/// The registry counter each EngineStats field mirrors, or nullptr when
/// the field has none (append_nanos: its registry twin is the
/// lsm.append_nanos histogram). Count() adds to both sides; stats()
/// reads the engine side back through this table.
struct StatCounter {
  uint64_t EngineStats::*field;
  const char* counter;
};
constexpr StatCounter kStatCounters[] = {
    {&EngineStats::append_batches, "lsm.append.batches"},
    {&EngineStats::append_rows, "lsm.append.rows"},
    {&EngineStats::append_nanos, nullptr},
    {&EngineStats::flushes, "lsm.flush.count"},
    {&EngineStats::flush_failures, "lsm.flush.failures"},
    {&EngineStats::flush_raw_bytes, "lsm.flush.raw_bytes"},
    {&EngineStats::flush_segment_bytes, "lsm.flush.segment_bytes"},
    {&EngineStats::compactions, "lsm.compact.count"},
    {&EngineStats::compact_in_bytes, "lsm.compact.in_bytes"},
    {&EngineStats::compact_out_bytes, "lsm.compact.out_bytes"},
    {&EngineStats::retry_attempts, "lsm.retry.attempts"},
    {&EngineStats::quarantined_segments, "lsm.scrub.quarantined"},
};
static_assert(sizeof(EngineStats) ==
                  std::size(kStatCounters) * sizeof(uint64_t),
              "every EngineStats field needs a kStatCounters entry");

/// A field's row in kStatCounters, which is also its stats_ cell.
constexpr size_t StatIndex(uint64_t EngineStats::*field) {
  size_t i = 0;
  while (kStatCounters[i].field != field) ++i;
  return i;
}

struct ManifestState {
  std::vector<ColumnDef> schema;
  uint64_t next_segment_id = 0;
  uint64_t wal_floor = 0;
  std::vector<SegmentInfo> segments;
  std::vector<QuarantinedSegment> quarantined;
};

void SerializeManifest(const ManifestState& m, Buffer* out) {
  PutFixed(out, kEngineMagic);
  PutVarint64(out, kEngineVersion);
  PutVarint64(out, m.schema.size());
  for (const auto& c : m.schema) {
    PutVarint64(out, c.name.size());
    out->Append(c.name.data(), c.name.size());
    out->PushBack(c.dtype == DType::kFloat64 ? 1 : 0);
    out->PushBack(static_cast<uint8_t>(c.precision_digits));
  }
  PutVarint64(out, m.next_segment_id);
  PutVarint64(out, m.wal_floor);
  PutVarint64(out, m.segments.size());
  for (const auto& s : m.segments) {
    PutVarint64(out, s.id);
    PutVarint64(out, s.rows);
    PutVarint64(out, s.level);
  }
  PutVarint64(out, m.quarantined.size());
  for (const auto& q : m.quarantined) {
    PutVarint64(out, q.id);
    PutVarint64(out, q.rows);
    const size_t len = std::min(q.reason.size(), kMaxReasonBytes);
    PutVarint64(out, len);
    out->Append(q.reason.data(), len);
  }
  PutFixed(out, XxHash64(out->span()));
}

Result<ManifestState> ParseManifest(ByteSpan in) {
  ManifestState m;
  size_t off = 0;
  uint32_t magic = 0;
  uint64_t version = 0, ncols = 0;
  if (!GetFixed(in, &off, &magic) || magic != kEngineMagic ||
      !GetVarint64(in, &off, &version) || version == 0 ||
      version > kEngineVersion || !GetVarint64(in, &off, &ncols) ||
      ncols == 0 || ncols > 4096) {
    return Status::Corruption("lsm: bad engine manifest header");
  }
  for (uint64_t c = 0; c < ncols; ++c) {
    ColumnDef def;
    uint64_t name_len = 0;
    if (!GetVarint64(in, &off, &name_len) || name_len > 256 ||
        name_len > in.size() - off) {
      return Status::Corruption("lsm: bad manifest column name");
    }
    def.name.assign(reinterpret_cast<const char*>(in.data() + off),
                    name_len);
    off += name_len;
    uint8_t dtype = 0, digits = 0;
    if (!GetFixed(in, &off, &dtype) || dtype > 1 ||
        !GetFixed(in, &off, &digits)) {
      return Status::Corruption("lsm: bad manifest column entry");
    }
    def.dtype = dtype ? DType::kFloat64 : DType::kFloat32;
    def.precision_digits = digits;
    m.schema.push_back(std::move(def));
  }
  uint64_t nsegs = 0;
  if (!GetVarint64(in, &off, &m.next_segment_id) ||
      !GetVarint64(in, &off, &m.wal_floor) ||
      !GetVarint64(in, &off, &nsegs) || nsegs > (1u << 20)) {
    return Status::Corruption("lsm: bad manifest segment directory");
  }
  for (uint64_t s = 0; s < nsegs; ++s) {
    SegmentInfo info;
    uint64_t level = 0;
    if (!GetVarint64(in, &off, &info.id) ||
        !GetVarint64(in, &off, &info.rows) ||
        !GetVarint64(in, &off, &level) || level > (1u << 20)) {
      return Status::Corruption("lsm: bad manifest segment entry");
    }
    info.level = static_cast<uint32_t>(level);
    m.segments.push_back(info);
  }
  if (version >= 2) {
    uint64_t nquar = 0;
    if (!GetVarint64(in, &off, &nquar) || nquar > (1u << 20)) {
      return Status::Corruption("lsm: bad manifest quarantine directory");
    }
    for (uint64_t q = 0; q < nquar; ++q) {
      QuarantinedSegment entry;
      uint64_t reason_len = 0;
      if (!GetVarint64(in, &off, &entry.id) ||
          !GetVarint64(in, &off, &entry.rows) ||
          !GetVarint64(in, &off, &reason_len) ||
          reason_len > kMaxReasonBytes || reason_len > in.size() - off) {
        return Status::Corruption("lsm: bad manifest quarantine entry");
      }
      entry.reason.assign(reinterpret_cast<const char*>(in.data() + off),
                          reason_len);
      off += reason_len;
      m.quarantined.push_back(std::move(entry));
    }
  }
  uint64_t hash = 0;
  if (!GetFixed(in, &off, &hash) || off != in.size() ||
      hash != XxHash64(in.subspan(0, off - sizeof(uint64_t)))) {
    return Status::Corruption("lsm: manifest checksum mismatch");
  }
  return m;
}

bool SchemaMatches(const std::vector<ColumnDef>& a,
                   const std::vector<ColumnDef>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].name != b[i].name || a[i].dtype != b[i].dtype ||
        a[i].precision_digits != b[i].precision_digits) {
      return false;
    }
  }
  return true;
}

/// Parses the id out of a segment file name ("seg-000007.manifest",
/// "seg-000007.0.col", ...); false for non-segment names.
bool ParseSegmentId(const std::string& name, uint64_t* id) {
  if (name.compare(0, 4, "seg-") != 0) return false;
  uint64_t v = 0;
  size_t i = 4;
  while (i < name.size() && name[i] >= '0' && name[i] <= '9') {
    v = v * 10 + static_cast<uint64_t>(name[i] - '0');
    ++i;
  }
  if (i == 4 || i == name.size() || name[i] != '.') return false;
  *id = v;
  return true;
}

/// Names of the `seg-<id>.*` files in `dir` (temps included) whose id
/// is one of `ids`.
Result<std::vector<std::string>> SegmentFileNames(
    const std::string& dir, const std::vector<uint64_t>& ids) {
  FCB_ASSIGN_OR_RETURN(std::vector<std::string> names, fs::ListDir(dir));
  std::erase_if(names, [&](const std::string& name) {
    uint64_t id = 0;
    return !ParseSegmentId(name, &id) ||
           std::find(ids.begin(), ids.end(), id) == ids.end();
  });
  return names;
}

/// On-disk footprint of a published segment: every `seg-<id>.*` file.
/// Best-effort (0 on listing errors) — feeds metrics only.
uint64_t SegmentDiskBytes(const std::string& dir, uint64_t id) {
  auto names = SegmentFileNames(dir, {id});
  if (!names.ok()) return 0;
  uint64_t total = 0;
  for (const auto& name : names.value()) {
    auto sz = fs::FileSize(fs::JoinPath(dir, name));
    if (sz.ok()) total += sz.value();
  }
  return total;
}

/// Moves the named files from `dir` into `<dir>/quarantine/` and makes
/// the moves durable: the quarantine dir is synced, then `dir`. No-op
/// (no directory created) when `names` is empty.
Status MoveToQuarantine(const std::string& dir,
                        const std::vector<std::string>& names) {
  if (names.empty()) return Status::OK();
  const std::string qdir = fs::JoinPath(dir, kQuarantineDir);
  FCB_RETURN_IF_ERROR(fs::CreateDir(qdir));
  for (const auto& name : names) {
    FCB_RETURN_IF_ERROR(
        fs::RenameFile(fs::JoinPath(dir, name), fs::JoinPath(qdir, name)));
  }
  FCB_RETURN_IF_ERROR(fs::SyncDir(qdir));
  return fs::SyncDir(dir);
}

/// Moves every `seg-<id>.*` file of the given segments into quarantine.
/// Serves both the last release of a quarantined segment's handle and
/// Open, which finishes a move that a crash, a failure or a still-held
/// handle left undone.
Status QuarantineFiles(const std::string& dir,
                       const std::vector<uint64_t>& ids) {
  FCB_ASSIGN_OR_RETURN(std::vector<std::string> names,
                       SegmentFileNames(dir, ids));
  return MoveToQuarantine(dir, names);
}

/// Removes every `seg-<id>.*` file in `dir`. Best-effort: what a failure
/// leaves, Open sweeps as unreferenced.
void RemoveSegmentFiles(const std::string& dir, uint64_t id) {
  auto names = SegmentFileNames(dir, {id});
  if (!names.ok()) return;
  for (const auto& name : names.value()) {
    fs::RemoveFile(fs::JoinPath(dir, name));
  }
}

/// False only when the engine MANIFEST in `dir` reads, verifies and does
/// not list segment `id`; an unreadable manifest might list it.
bool ManifestMayList(const std::string& dir, uint64_t id) {
  auto raw = fs::ReadFile(fs::JoinPath(dir, kManifestName));
  if (!raw.ok()) return true;
  auto m = ParseManifest(raw.value().span());
  if (!m.ok()) return true;
  return std::any_of(m.value().segments.begin(), m.value().segments.end(),
                     [&](const SegmentInfo& s) { return s.id == id; });
}

/// f64 -> column dtype -> f64, so memtable reads agree bit-for-bit with
/// what a flushed segment will hand back.
double RoundTripValue(double v, DType dtype) {
  if (dtype == DType::kFloat32) return static_cast<double>(
      static_cast<float>(v));
  return v;
}

/// Longest RetryIo backoff wait (about 35 years): the wait's deadline is
/// a steady_clock time in int64 nanoseconds, which this cannot overflow.
constexpr uint64_t kMaxBackoffMs = uint64_t{1} << 40;

/// The wait before retry number `retry` (the first try is retry 0, which
/// never waits): `base_ms << (retry - 1)`, saturating at kMaxBackoffMs.
constexpr uint64_t BackoffMs(int base_ms, int retry) {
  if (base_ms <= 0 || retry <= 0) return 0;
  const int shift = retry - 1;
  const auto base = static_cast<uint64_t>(base_ms);
  if (shift >= 64 || base > (kMaxBackoffMs >> shift)) return kMaxBackoffMs;
  return base << shift;
}
static_assert(BackoffMs(1, 1) == 1 && BackoffMs(3, 4) == 24);
static_assert(BackoffMs(1 << 30, 40) == kMaxBackoffMs);
static_assert(BackoffMs(1, 1000) == kMaxBackoffMs);

/// The fail-fast error writers see once bg_error_ is sticky. Keeps the
/// root cause's code (a ResourceExhausted flush stays typed ENOSPC).
Status ReadOnlyStatus(const Status& bg) {
  return Status(bg.code(),
                "lsm: engine is read-only after background error: " +
                    bg.message());
}

}  // namespace

/// A retiring call (compaction after its install, scrub after a
/// quarantine) sets the fate; whichever holder releases the handle last
/// applies it, off-lock. `fate` is atomic because that store and the
/// final release may run on different threads.
struct IngestEngine::Segment {
  enum class Fate { kKeep, kDrop, kQuarantine };

  Segment(const SegmentInfo& i, std::string p)
      : info(i), prefix(std::move(p)) {}
  ~Segment() {
    // Best-effort: Open sweeps a dropped segment's leftovers and
    // finishes a quarantine move.
    if (fate == Fate::kDrop) ColumnStore::Drop(prefix);
    if (fate == Fate::kQuarantine) {
      QuarantineFiles(fs::DirOf(prefix), {info.id});
    }
  }

  const SegmentInfo info;
  const std::string prefix;
  mutable std::atomic<Fate> fate{Fate::kKeep};
};

Result<std::unique_ptr<IngestEngine>> IngestEngine::Open(
    const std::string& dir, const std::vector<ColumnDef>& schema,
    const EngineOptions& options) {
  auto eng = std::unique_ptr<IngestEngine>(new IngestEngine());
  eng->dir_ = dir;
  eng->opt_ = options;
  FCB_RETURN_IF_ERROR(fs::CreateDir(dir));

  const std::string mpath = fs::JoinPath(dir, kManifestName);
  Version v;
  if (fs::FileExists(mpath)) {
    FCB_ASSIGN_OR_RETURN(Buffer raw, fs::ReadFile(mpath));
    FCB_ASSIGN_OR_RETURN(ManifestState m, ParseManifest(raw.span()));
    if (!schema.empty() && !SchemaMatches(schema, m.schema)) {
      return Status::InvalidArgument("lsm: schema mismatch with manifest");
    }
    // Keep caller-side compressor overrides when the shapes match;
    // adopt the stored schema wholesale when none was given.
    eng->schema_ = schema.empty() ? m.schema : schema;
    eng->next_segment_id_ = m.next_segment_id;
    v.wal_floor = m.wal_floor;
    for (const auto& info : m.segments) {
      v.segments.push_back(
          std::make_shared<const Segment>(info, eng->SegPrefix(info.id)));
    }
    v.quarantined = std::move(m.quarantined);
  } else {
    if (schema.empty()) {
      return Status::InvalidArgument("lsm: new engine needs a schema");
    }
    for (const auto& c : schema) {
      if (c.name.empty() || c.name.size() > 256) {
        return Status::InvalidArgument("lsm: bad column name");
      }
    }
    eng->schema_ = schema;
    // The schema must be durable before the first WAL record refers to
    // it, so an empty engine is recoverable from its very first byte.
    FCB_RETURN_IF_ERROR(eng->WriteManifestLocked(v));
  }

  // Files of a *quarantined* segment still here are moved, not swept:
  // the manifest recorded the quarantine before the files moved, so a
  // move a crash (or a failure) interrupted is finished, keeping the
  // corrupt files as evidence.
  std::vector<uint64_t> quarantined_ids;
  for (const auto& q : v.quarantined) quarantined_ids.push_back(q.id);
  FCB_RETURN_IF_ERROR(QuarantineFiles(dir, quarantined_ids));

  // Sweep unpublished state: stale atomic-write temps, segment files a
  // crashed flush/compaction wrote but never referenced from the
  // manifest (or a retired segment's leftovers), and WAL segments below
  // the floor (their rows live in published segments).
  std::vector<bool> live;  // indexed by segment id
  for (const auto& s : v.segments) {
    if (s->info.id >= live.size()) live.resize(s->info.id + 1, false);
    live[s->info.id] = true;
  }
  FCB_ASSIGN_OR_RETURN(std::vector<std::string> names, fs::ListDir(dir));
  for (const auto& name : names) {
    const std::string path = fs::JoinPath(dir, name);
    uint64_t id = 0, seq = 0;
    if (fs::IsTempPath(name)) {
      FCB_RETURN_IF_ERROR(fs::RemoveFile(path));
    } else if (ParseSegmentId(name, &id)) {
      if (id >= live.size() || !live[id]) {
        FCB_RETURN_IF_ERROR(fs::RemoveFile(path));
      }
    } else if (Wal::ParseSegmentFileName(name, &seq)) {
      if (seq < v.wal_floor) FCB_RETURN_IF_ERROR(fs::RemoveFile(path));
    }
  }

  // Replay the WAL into a fresh memtable — prefix-truncating recovery;
  // a torn tail is expected after a crash, never an error.
  eng->mem_ = std::make_unique<MemTable>(eng->schema_.size());
  FCB_ASSIGN_OR_RETURN(WalReader::Replay replay,
                       WalReader::ReplayDir(dir, v.wal_floor));
  // Where the applied prefix ends: a checksum-valid but malformed record
  // ends it early, at that record's start.
  uint64_t end_seq = replay.end_seq;
  uint64_t end_offset = replay.end_offset;
  bool stop = false;
  for (const auto& rec : replay.records) {
    FCB_RETURN_IF_ERROR(eng->ApplyWalRecord(rec, &stop));
    if (stop) {
      end_seq = rec.segment_seq;
      end_offset = rec.offset;
      break;
    }
  }

  // Seal the log at the end of the recovered prefix before anything new
  // is written: move the segments after it, which hold only records the
  // prefix rule discarded, into quarantine/, then cut its segment back to
  // its last good record (a torn tail, a zero tail). Moving first means a
  // crash in between can never let those records replay. New appends go
  // to the next segment, so a second crash replays the sealed prefix and
  // then every row acknowledged since, instead of stopping at this
  // crash's torn tail. Recovery never appends to a sealed segment.
  uint64_t next_seq = v.wal_floor;
  if (!replay.segments.empty()) {
    std::vector<std::string> discarded;
    for (uint64_t seq : replay.segments) {
      if (seq > end_seq) discarded.push_back(Wal::SegmentFileName(seq));
    }
    FCB_RETURN_IF_ERROR(MoveToQuarantine(dir, discarded));
    FCB_RETURN_IF_ERROR(Wal::Seal(dir, end_seq, end_offset));
    next_seq = end_seq + 1;
  }
  Wal::Options wopt;
  wopt.segment_bytes = options.wal_segment_bytes;
  wopt.sync_on_commit = options.sync_on_commit;
  FCB_ASSIGN_OR_RETURN(eng->wal_, Wal::Open(dir, next_seq, wopt));
  eng->current_ = std::make_shared<const Version>(std::move(v));
  return eng;
}

template <uint64_t EngineStats::*Field>
void IngestEngine::Count(uint64_t n) {
  constexpr size_t kIndex = StatIndex(Field);
  stats_[kIndex].fetch_add(n, std::memory_order_relaxed);
  if constexpr (kStatCounters[kIndex].counter != nullptr) {
    static obs::Counter* const counter =
        obs::MetricsRegistry::Global().GetCounter(
            kStatCounters[kIndex].counter);
    // Gated on obs::Enabled() inside Add; the engine cell counts always.
    counter->Add(n);
  }
}

/// Runs `op` up to io_retry_attempts times with exponential backoff,
/// retrying only transient IO errors (kIoError). ENOSPC (typed
/// ResourceExhausted) and Corruption are not transient and fail at once.
/// The backoff is a condition-variable wait on retry_cancel_, NOT a
/// sleep: Close()/destruction sets it cancelled and wakes it, so shutting
/// an engine down never waits out the full backoff ladder. The final
/// failure is wrapped with `what` and the attempt count so a sticky
/// background error names both the step and the root cause.
///
/// Each retry (attempt beyond the first) counts retry_attempts and
/// records a kRetryBackoff trace event whose detail is the engine dir,
/// so a post-mortem dump attributes the ladder to a shard.
template <typename Op>
Status IngestEngine::RetryIo(const std::string& what, Op&& op) {
  const int attempts = std::max(1, opt_.io_retry_attempts);
  Status st;
  for (int i = 0; i < attempts; ++i) {
    const uint64_t backoff_ms = BackoffMs(opt_.io_retry_backoff_ms, i);
    if (i > 0) {
      Count<&EngineStats::retry_attempts>();
      obs::EventTrace::Global().Record(obs::EventKind::kRetryBackoff, dir_,
                                       static_cast<uint64_t>(i), backoff_ms);
    }
    if (backoff_ms > 0) {
      std::unique_lock<std::mutex> lk(retry_cancel_.mu);
      const bool interrupted = retry_cancel_.cv.wait_for(
          lk, std::chrono::milliseconds(backoff_ms),
          [&] { return retry_cancel_.cancelled; });
      if (interrupted) {
        return Status(st.ok() ? StatusCode::kIoError : st.code(),
                      what + " interrupted by Close during retry backoff" +
                          (st.ok() ? "" : ": " + st.message()));
      }
    }
    {
      // Every attempt is a child span; a failed one carries the errno
      // the failpoint (or real IO) produced, so a sampled trace shows
      // the whole retry ladder with per-attempt causes and the backoff
      // gaps between them.
      obs::ScopedSpan attempt("io.attempt", static_cast<uint64_t>(i + 1));
      st = op();
      if (!st.ok()) {
        attempt.SetArgs(static_cast<uint64_t>(i + 1),
                        static_cast<uint64_t>(StatusErrno(st.code())));
        attempt.SetTag(StatusErrnoName(st.code()));
      }
    }
    if (st.ok() || st.code() != StatusCode::kIoError) return st;
  }
  return Status(st.code(), what + " failed after " +
                               std::to_string(attempts) +
                               " attempts: " + st.message());
}

IngestEngine::~IngestEngine() { Close(); }

void IngestEngine::InterruptRetries() {
  {
    std::lock_guard<std::mutex> g(retry_cancel_.mu);
    retry_cancel_.cancelled = true;
  }
  retry_cancel_.cv.notify_all();
}

Status IngestEngine::Close() {
  // Cancel first, then wait: an in-flight retry ladder gives up at its
  // next backoff wait instead of sleeping it out.
  InterruptRetries();
  std::unique_lock<std::mutex> lk(mu_);
  cv_.wait(lk, [&] {
    return !flush_inflight_ && !compact_inflight_ && bg_tasks_ == 0;
  });
  if (closed_) return Status::OK();
  closed_ = true;
  lk.unlock();
  {
    std::lock_guard<std::mutex> g(spare_->mu);
    spare_->closed = true;
    spare_->mem.reset();
  }
  if (wal_ != nullptr) return wal_->Close();
  return Status::OK();
}

std::string IngestEngine::SegPrefix(uint64_t id) const {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "seg-%06llu",
                static_cast<unsigned long long>(id));
  return fs::JoinPath(dir_, buf);
}

Status IngestEngine::WriteManifestLocked(const Version& v) const {
  FCB_FAIL_RETURN("lsm.manifest", fs::JoinPath(dir_, kManifestName));
  ManifestState m;
  m.schema = schema_;
  m.next_segment_id = next_segment_id_;
  m.wal_floor = v.wal_floor;
  for (const auto& s : v.segments) m.segments.push_back(s->info);
  m.quarantined = v.quarantined;
  Buffer buf;
  SerializeManifest(m, &buf);
  return fs::WriteFileAtomic(fs::JoinPath(dir_, kManifestName), buf.span(),
                             /*durable=*/true);
}

Status IngestEngine::InstallLocked(const std::string& what, Version next) {
  FCB_RETURN_IF_ERROR(RetryIo(what, [&] { return WriteManifestLocked(next); }));
  // The Version replaced here never holds the last handle of a segment
  // that leaves the serving set: the publisher holds that one, so the
  // file IO of its release happens off-lock.
  current_ = std::make_shared<const Version>(std::move(next));
  return Status::OK();
}

Status IngestEngine::ApplyWalRecord(const WalRecord& rec, bool* stop) {
  if (rec.type != Wal::kTypeRows) return Status::OK();  // forward compat
  ByteSpan in = rec.payload.span();
  size_t off = 0;
  uint64_t nrows = 0;
  const size_t ncols = schema_.size();
  const size_t row_bytes = ncols * sizeof(double);
  if (!GetVarint64(in, &off, &nrows) ||
      nrows > (in.size() - off) / row_bytes ||
      nrows * row_bytes != in.size() - off) {
    // A checksum-valid record with a malformed payload: stop applying —
    // the rows before it are still a consistent prefix.
    *stop = true;
    return Status::OK();
  }
  if (nrows == 0) return Status::OK();
  std::vector<double> rows(nrows * ncols);
  std::memcpy(rows.data(), in.data() + off, nrows * row_bytes);
  mem_->AppendRows(rows.data(), nrows);
  return Status::OK();
}

Status IngestEngine::Append(const std::vector<double>& row) {
  return AppendBatch(row);
}

Status IngestEngine::AppendBatch(const std::vector<double>& rows_row_major) {
  const size_t ncols = schema_.size();
  if (ncols == 0 || rows_row_major.size() % ncols != 0) {
    return Status::InvalidArgument("lsm: batch is not whole rows");
  }
  const size_t nrows = rows_row_major.size() / ncols;
  if (nrows == 0) return Status::OK();
  obs::ScopedSpan span("lsm.append", nrows,
                       rows_row_major.size() * sizeof(double));
  Timer append_timer;
  // The WAL record's payload is varint(nrows) then the rows. Wal::Append
  // copies both straight from here into its pending batch, so a row is
  // copied once into the log and once into the memtable.
  uint8_t head[10];  // the longest varint
  const size_t head_len = PutVarint64(head, nrows) - head;

  std::unique_lock<std::mutex> lk(mu_);
  if (closed_) return Status::InvalidArgument("lsm: engine is closed");
  // Fail fast once a background failure made the engine read-only: the
  // caller gets the root cause, not a mystery timeout.
  if (!bg_error_.ok()) return ReadOnlyStatus(bg_error_);

  FCB_RETURN_IF_ERROR(wal_->Append(Wal::kTypeRows, ByteSpan(head, head_len),
                                   AsBytes(rows_row_major)));
  // Group commit: the whole batch costs one write and (when configured)
  // one fsync. A failure here (ENOSPC included) rejected exactly this
  // batch — the WAL healed itself back to the previous commit, so the
  // engine stays writable for later batches. After this point the batch
  // survives a crash.
  FCB_RETURN_IF_ERROR(wal_->Commit());
  {
    obs::ScopedSpan mem_span("lsm.memtable", nrows);
    mem_->AppendRows(rows_row_major.data(), nrows);
  }

  if (mem_->bytes() >= opt_.memtable_bytes) {
    Result<FlushJob> job = PrepareFlushLocked(lk);
    if (job.ok() && job.value().mem) RunScheduledFlush(lk, job.TakeValue());
    // A failed flush *schedule* (job) or a flush that failed inline is
    // deliberately not returned: this batch IS durably committed, and
    // OK must mean exactly that. The failure is sticky (bg_error_, or
    // retried scheduling at the next append) and surfaces on the next
    // call — never as a false negative on an acknowledged batch.
  }
  const uint64_t nanos = append_timer.ElapsedNanos();
  Count<&EngineStats::append_batches>();
  Count<&EngineStats::append_rows>(nrows);
  Count<&EngineStats::append_nanos>(nanos);
  static obs::Histogram* append_nanos =
      obs::MetricsRegistry::Global().GetHistogram("lsm.append_nanos",
                                                  obs::Unit::kNanos);
  append_nanos->Record(nanos);
  return Status::OK();
}

Result<IngestEngine::FlushJob> IngestEngine::PrepareFlushLocked(
    std::unique_lock<std::mutex>& lk) {
  // Backpressure: at most one immutable memtable — an appender that
  // fills the live memtable while a flush is running waits here. That
  // wait is a write stall, traced and timed as its own layer.
  if (flush_inflight_) {
    static obs::Histogram* stall_nanos =
        obs::MetricsRegistry::Global().GetHistogram("lsm.stall_nanos",
                                                    obs::Unit::kNanos);
    obs::ScopedSpan stall_span("lsm.stall");
    Timer stall_timer;
    cv_.wait(lk, [&] { return !flush_inflight_; });
    stall_nanos->Record(stall_timer.ElapsedNanos());
  }
  if (closed_) return Status::InvalidArgument("lsm: engine is closed");
  if (!bg_error_.ok()) return ReadOnlyStatus(bg_error_);
  if (mem_->empty()) return FlushJob{};
  FCB_RETURN_IF_ERROR(wal_->Commit());
  // Rotate so every record of the flushing memtable lives in a segment
  // strictly below the new sequence number; publishing the flush then
  // simply advances the floor to it.
  FCB_RETURN_IF_ERROR(wal_->Rotate());
  // The last release of the immutable memtable, the flush's or a
  // reader's, clears it and parks it as the spare; the next swap here
  // takes it, capacity and all. After Close it is freed instead.
  imm_ = std::shared_ptr<const MemTable>(
      mem_.release(), [spare = spare_](MemTable* mem) {
        std::unique_ptr<MemTable> owned(mem);  // freed after the unlock
        std::lock_guard<std::mutex> g(spare->mu);
        if (spare->closed) return;
        owned->Clear();
        spare->mem = std::move(owned);
      });
  {
    std::lock_guard<std::mutex> g(spare_->mu);
    mem_ = std::move(spare_->mem);
  }
  if (mem_ != nullptr) {
    static obs::Counter* recycled =
        obs::MetricsRegistry::Global().GetCounter("lsm.memtable.recycled");
    recycled->Increment();
  } else {
    mem_ = std::make_unique<MemTable>(schema_.size());
  }
  flush_inflight_ = true;
  return FlushJob{imm_, next_segment_id_++, wal_->seq()};
}

void IngestEngine::RunScheduledFlush(std::unique_lock<std::mutex>& lk,
                                     FlushJob job) {
  if (!opt_.background_flush) {
    lk.unlock();
    DoFlushAndPublish(std::move(job));
    lk.lock();
    return;
  }
  ++bg_tasks_;
  ThreadPool::Shared().Submit([this, job = std::move(job)]() mutable {
    DoFlushAndPublish(std::move(job));
    std::lock_guard<std::mutex> g(mu_);
    --bg_tasks_;
    cv_.notify_all();
  });
}

void IngestEngine::DoFlushAndPublish(FlushJob job) {
  const MemTable& imm = *job.mem;
  const uint64_t seg_id = job.seg_id;
  const uint64_t raw_bytes = imm.bytes();
  const uint64_t rows = imm.rows();
  // Nests under the triggering append when that append's trace context
  // rode along with the pool task (ThreadPool::Submit), or directly
  // under the caller for inline flushes.
  obs::ScopedSpan span("lsm.flush", seg_id, raw_bytes);
  obs::ScopedWatch watch("lsm.flush", dir_, opt_.watchdog_budget_ms);
  obs::EventTrace::Global().Record(obs::EventKind::kFlushStart, dir_,
                                   seg_id, raw_bytes);
  Timer flush_timer;

  // Compress and write the segment off-lock. Columns are *copied* out of
  // the immutable memtable: concurrent ReadColumn calls still see it.
  std::vector<ColumnStore::ColumnSpec> specs(schema_.size());
  for (size_t c = 0; c < schema_.size(); ++c) {
    specs[c].name = schema_[c].name;
    specs[c].compressor = schema_[c].compressor.empty()
                              ? opt_.flush_compressor
                              : schema_[c].compressor;
    specs[c].dtype = schema_[c].dtype;
    specs[c].precision_digits = schema_[c].precision_digits;
    specs[c].values = imm.column(c);
  }
  Status st = RetryIo("lsm: flush of segment " + SegPrefix(seg_id),
                      [&]() -> Status {
                        FCB_FAIL_RETURN("lsm.flush", SegPrefix(seg_id));
                        return ColumnStore::Write(SegPrefix(seg_id), specs,
                                                  opt_.page_size);
                      });
  const uint64_t seg_bytes =
      st.ok() && obs::Enabled() ? SegmentDiskBytes(dir_, seg_id) : 0;

  {
    std::lock_guard<std::mutex> g(mu_);
    if (st.ok()) {
      // A failed install leaves the previous Version, floor included, so
      // the rows stay safe in the WAL.
      Version next = *current_;
      next.segments.push_back(std::make_shared<const Segment>(
          SegmentInfo{seg_id, rows, 0}, SegPrefix(seg_id)));
      next.wal_floor = job.floor;
      obs::ScopedSpan manifest_span("lsm.manifest", seg_id);
      st = InstallLocked("lsm: manifest publish", std::move(next));
    }
    if (st.ok()) {
      imm_.reset();
    } else {
      // Retries exhausted: degrade to read-only. imm_ is deliberately
      // KEPT — its rows are acknowledged (WAL-durable) and must stay
      // visible to ReadColumn; the next Open replays them from the WAL
      // (floor unchanged). bg_error_ being sticky guarantees no further
      // flush is scheduled while imm_ lingers.
      bg_error_ = st;
    }
    // Drop the flush's reference before the next swap can run: unless a
    // reader still holds the memtable, this was the last one, and the
    // swap finds it parked as the spare.
    job.mem.reset();
    flush_inflight_ = false;
    cv_.notify_all();
  }

  if (st.ok()) {
    Count<&EngineStats::flushes>();
    Count<&EngineStats::flush_raw_bytes>(raw_bytes);
    Count<&EngineStats::flush_segment_bytes>(seg_bytes);
    auto& reg = obs::MetricsRegistry::Global();
    reg.GetHistogram("lsm.flush_nanos", obs::Unit::kNanos)
        ->Record(flush_timer.ElapsedNanos());
    if (seg_bytes > 0) {
      // Compression ratio x100 (log-bucketed): 250 = 2.5x.
      reg.GetHistogram("lsm.flush.cr_pct", obs::Unit::kCount)
          ->Record(raw_bytes * 100 / seg_bytes);
    }
    obs::EventTrace::Global().Record(obs::EventKind::kFlushPublish, dir_,
                                     seg_id, seg_bytes);
  } else {
    Count<&EngineStats::flush_failures>();
    obs::MetricsRegistry::Global()
        .GetCounter("lsm.degraded.count")
        ->Increment();
    obs::EventTrace::Global().Record(obs::EventKind::kFlushFail, dir_,
                                     seg_id, raw_bytes);
    obs::EventTrace::Global().Record(obs::EventKind::kDegraded, dir_,
                                     seg_id, 0);
    // The flight recorder's reason to exist: the moments leading up to
    // a shard going read-only, dumped at the moment it happens.
    obs::EventTrace::Global().DumpToStderr(
        "engine degraded to read-only: " + dir_);
  }

  if (st.ok()) {
    // Off-lock: the flushed rows now live in a published segment, so
    // their memtable bytes are no longer buffered. A failed flush
    // deliberately does NOT fire this — the bytes are still pinned in
    // imm_ and admission control must keep counting them.
    if (opt_.on_memtable_released) opt_.on_memtable_released(raw_bytes);
    DeleteWalBelowFloor();
    if (opt_.compact_fanout >= 2) {
      bool merged = false;
      CompactOnce(opt_.compact_fanout, &merged);  // best-effort tiering
    }
  }
}

void IngestEngine::DeleteWalBelowFloor() {
  uint64_t floor = 0;
  {
    std::lock_guard<std::mutex> g(mu_);
    floor = current_->wal_floor;
  }
  auto names = fs::ListDir(dir_);
  if (!names.ok()) return;  // cleaned up at next Open
  for (const auto& name : names.value()) {
    uint64_t seq = 0;
    if (Wal::ParseSegmentFileName(name, &seq) && seq < floor) {
      fs::RemoveFile(fs::JoinPath(dir_, name));
    }
  }
}

Status IngestEngine::Flush() {
  std::unique_lock<std::mutex> lk(mu_);
  FCB_ASSIGN_OR_RETURN(FlushJob job, PrepareFlushLocked(lk));
  if (!job.mem) return bg_error_;
  lk.unlock();
  DoFlushAndPublish(std::move(job));
  lk.lock();
  return bg_error_;
}

Status IngestEngine::ScheduleFlush() {
  std::unique_lock<std::mutex> lk(mu_);
  FCB_ASSIGN_OR_RETURN(FlushJob job, PrepareFlushLocked(lk));
  // A queued flush cannot have failed yet: it needs mu_, held since
  // PrepareFlushLocked saw bg_error_ OK.
  if (job.mem) RunScheduledFlush(lk, std::move(job));
  return bg_error_;
}

uint64_t IngestEngine::buffered_bytes() const {
  std::lock_guard<std::mutex> g(mu_);
  return mem_->bytes() + (imm_ ? imm_->bytes() : 0);
}

Status IngestEngine::WaitForFlush() {
  std::unique_lock<std::mutex> lk(mu_);
  cv_.wait(lk, [&] { return !flush_inflight_ && bg_tasks_ == 0; });
  return bg_error_;
}

uint64_t IngestEngine::SmallRowsThresholdLocked() const {
  const size_t ncols = std::max<size_t>(1, schema_.size());
  const uint64_t memtable_rows =
      std::max<uint64_t>(1, opt_.memtable_bytes / (sizeof(double) * ncols));
  return 4 * memtable_rows;
}

Status IngestEngine::Compact() {
  bool merged = false;
  return CompactOnce(2, &merged);
}

Status IngestEngine::CompactOnce(size_t min_run, bool* merged) {
  *merged = false;
  obs::ScopedSpan span("lsm.compact");
  // Declared before the lock so every return releases the run's handles
  // off-lock: the last release of a retired segment does file IO.
  SegmentSet run;
  std::unique_lock<std::mutex> lk(mu_);
  cv_.wait(lk, [&] { return !compact_inflight_; });
  if (closed_) return Status::InvalidArgument("lsm: engine is closed");
  if (!bg_error_.ok()) return ReadOnlyStatus(bg_error_);

  // First adjacent run of >= min_run small segments, oldest first.
  const uint64_t small = SmallRowsThresholdLocked();
  const SegmentSet& segs = current_->segments;
  size_t run_begin = 0, run_len = 0;
  for (size_t i = 0; i < segs.size();) {
    if (segs[i]->info.rows <= small) {
      size_t j = i;
      while (j < segs.size() && segs[j]->info.rows <= small &&
             j - i < kMaxCompactRun) {
        ++j;
      }
      if (j - i >= min_run) {
        run_begin = i;
        run_len = j - i;
        break;
      }
      i = j;
    } else {
      ++i;
    }
  }
  if (run_len == 0) return Status::OK();

  run.assign(segs.begin() + run_begin, segs.begin() + run_begin + run_len);
  const uint64_t new_id = next_segment_id_++;
  compact_inflight_ = true;
  lk.unlock();

  obs::ScopedWatch watch("lsm.compact", dir_, opt_.watchdog_budget_ms);

  // Merge off-lock: concatenate each column across the run and
  // re-compress cold data with the ratio-biased selector.
  uint64_t total_rows = 0;
  uint32_t max_level = 0;
  for (const auto& s : run) {
    total_rows += s->info.rows;
    max_level = std::max(max_level, s->info.level);
  }
  span.SetArgs(run_len, total_rows);
  std::vector<ColumnStore::ColumnSpec> specs(schema_.size());
  Status st;
  for (size_t c = 0; c < schema_.size() && st.ok(); ++c) {
    specs[c].name = schema_[c].name;
    specs[c].compressor = opt_.compact_compressor;
    specs[c].dtype = schema_[c].dtype;
    specs[c].precision_digits = schema_[c].precision_digits;
    specs[c].values.resize(total_rows);
    const std::span<double> merged_col(specs[c].values);
    size_t pos = 0;
    for (const auto& s : run) {
      obs::ScopedSpan read_span("segment.read", s->info.id, s->info.rows);
      st = ColumnStore::ReadRowsInto(s->prefix, schema_[c].name, 0,
                                     merged_col.subspan(pos, s->info.rows));
      if (!st.ok()) break;
      pos += s->info.rows;
    }
  }
  if (st.ok()) {
    st = RetryIo("lsm: compaction write of " + SegPrefix(new_id),
                 [&]() -> Status {
                   FCB_FAIL_RETURN("lsm.compact", SegPrefix(new_id));
                   return ColumnStore::Write(SegPrefix(new_id), specs,
                                             opt_.page_size);
                 });
  }

  lk.lock();
  if (st.ok()) {
    // The run must still be in place, handle for handle: flushes only
    // append, but a scrub may have quarantined one of its segments.
    Version next = *current_;
    auto it = std::search(next.segments.begin(), next.segments.end(),
                          run.begin(), run.end());
    if (it == next.segments.end()) {
      st = Status::Internal("lsm: compaction run changed (quarantined)");
    } else {
      next.segments.insert(
          next.segments.erase(it, it + run_len),
          std::make_shared<const Segment>(
              SegmentInfo{new_id, total_rows, max_level + 1},
              SegPrefix(new_id)));
      obs::ScopedSpan manifest_span("lsm.manifest", new_id);
      st = InstallLocked("lsm: compaction manifest publish", std::move(next));
    }
  }
  compact_inflight_ = false;
  cv_.notify_all();
  if (!st.ok()) {
    // A failed compaction installs nothing, so its merged files are
    // garbage unless the MANIFEST on disk lists them: a manifest write
    // whose rename landed but whose directory fsync failed leaves a
    // MANIFEST the next Open recovers from. Checked under mu_, so no
    // manifest write is in progress; later ones are written from
    // current_, which never lists new_id.
    const bool keep = ManifestMayList(dir_, new_id);
    lk.unlock();
    if (!keep) RemoveSegmentFiles(dir_, new_id);
    return st;
  }
  for (const auto& s : run) s->fate = Segment::Fate::kDrop;
  lk.unlock();

  uint64_t in_bytes = 0, out_bytes = 0;
  if (obs::Enabled()) {
    for (const auto& s : run) in_bytes += SegmentDiskBytes(dir_, s->info.id);
    out_bytes = SegmentDiskBytes(dir_, new_id);
  }
  // Readers that captured the run before the install still hold it; the
  // last of them deletes the files.
  run.clear();
  Count<&EngineStats::compactions>();
  Count<&EngineStats::compact_in_bytes>(in_bytes);
  Count<&EngineStats::compact_out_bytes>(out_bytes);
  obs::EventTrace::Global().Record(obs::EventKind::kCompact, dir_, run_len,
                                   total_rows);
  *merged = true;
  return Status::OK();
}

Result<std::vector<double>> IngestEngine::ReadColumn(
    const std::string& column) const {
  // Reads deliberately do NOT check bg_error_: a read-only engine keeps
  // serving everything acknowledged — published segments plus both
  // memtables (a kept imm_ after a failed flush is WAL-durable).
  obs::ScopedSpan span("lsm.read");
  std::unique_lock<std::mutex> lk(mu_);
  size_t col = schema_.size();
  for (size_t c = 0; c < schema_.size(); ++c) {
    if (schema_[c].name == column) {
      col = c;
      break;
    }
  }
  if (col == schema_.size()) {
    return Status::InvalidArgument("lsm: no column '" + column + "'");
  }
  const DType dtype = schema_[col].dtype;

  const std::shared_ptr<const Version> version = current_;
  std::shared_ptr<const MemTable> imm = imm_;
  std::vector<double> tail = mem_->column(col);
  lk.unlock();
  const SegmentSet& segs = version->segments;

  // Size the result once; each segment then decodes straight into its
  // own slice, and the memtables fill the end.
  uint64_t seg_rows = 0;
  for (const auto& s : segs) seg_rows += s->info.rows;
  const std::vector<double>* imm_col =
      imm != nullptr ? &imm->column(col) : nullptr;
  std::vector<double> out(seg_rows + (imm_col ? imm_col->size() : 0) +
                          tail.size());
  const std::span<double> dst(out);
  size_t pos = 0;
  for (const auto& s : segs) {
    obs::ScopedSpan read_span("segment.read", s->info.id, s->info.rows);
    FCB_RETURN_IF_ERROR(ColumnStore::ReadRowsInto(
        s->prefix, column, 0, dst.subspan(pos, s->info.rows)));
    pos += s->info.rows;
  }
  if (imm_col != nullptr) {
    for (double v : *imm_col) out[pos++] = RoundTripValue(v, dtype);
  }
  for (double v : tail) out[pos++] = RoundTripValue(v, dtype);
  return out;
}

Result<ScrubReport> IngestEngine::Scrub() {
  ScrubReport report;
  obs::ScopedSpan span("lsm.scrub");
  obs::ScopedWatch watch("lsm.scrub", dir_, opt_.watchdog_budget_ms);
  // The captured Version keeps its segments' files alive while they are
  // verified, whatever flushes and compactions install meanwhile.
  // Declared before the lock so every return releases it off-lock.
  std::shared_ptr<const Version> version;
  std::unique_lock<std::mutex> lk(mu_);
  if (closed_) return Status::InvalidArgument("lsm: engine is closed");
  version = current_;
  lk.unlock();
  const SegmentSet& segs = version->segments;

  // Re-verify every published segment in parallel on the shared pool:
  // whole-file checksums against the identities captured at write time.
  std::vector<Status> verdicts(segs.size());
  ThreadPool::Shared().ParallelFor(
      segs.size(),
      [&](size_t i) {
        obs::ScopedSpan verify_span("segment.verify", segs[i]->info.id,
                                    segs[i]->info.rows);
        verdicts[i] = ColumnStore::Verify(segs[i]->prefix);
      },
      {/*grain=*/1});

  lk.lock();
  report.segments_checked = segs.size();
  for (size_t i = 0; i < segs.size(); ++i) {
    const Status& v = verdicts[i];
    const SegmentInfo& info = segs[i]->info;
    if (v.ok()) continue;
    if (v.code() != StatusCode::kCorruption) {
      // A read error is a finding, not proof of corruption; report it
      // and quarantine nothing.
      report.notes.push_back("segment " + std::to_string(info.id) +
                             ": verify error: " + v.ToString());
      continue;
    }
    Version next = *current_;
    auto it = std::find(next.segments.begin(), next.segments.end(), segs[i]);
    if (it == next.segments.end()) continue;  // retired meanwhile
    // Quarantine protocol: record the verdict in the manifest FIRST,
    // then move the files. A crash between the two is completed by the
    // next Open (quarantined ids found in the main dir are moved, not
    // swept), so the evidence can never be lost to the sweep. A failed
    // install leaves the segment serving; a later scrub retries.
    next.segments.erase(it);
    QuarantinedSegment q{info.id, info.rows,
                         v.message().substr(0, kMaxReasonBytes)};
    next.quarantined.push_back(q);
    FCB_RETURN_IF_ERROR(
        InstallLocked("lsm: quarantine manifest publish", std::move(next)));
    segs[i]->fate = Segment::Fate::kQuarantine;
    report.quarantined_ids.push_back(q.id);
    report.notes.push_back("segment " + std::to_string(q.id) +
                           " quarantined: " + q.reason);
    Count<&EngineStats::quarantined_segments>();
    obs::EventTrace::Global().Record(obs::EventKind::kQuarantine, dir_,
                                     q.id, q.rows);
  }

  // WAL verification runs under the lock: no appender can be mid-commit,
  // so the on-disk tail is exactly the committed prefix.
  auto rr = WalReader::ReplayDir(dir_, current_->wal_floor);
  if (rr.ok()) {
    report.wal_records_verified = rr.value().records.size();
    report.wal_clean = !rr.value().truncated;
    if (!report.wal_clean) {
      report.notes.push_back(
          "wal: replay truncated early (torn or corrupt record)");
    }
  } else {
    report.wal_clean = false;
    report.notes.push_back("wal: verify failed: " + rr.status().ToString());
  }
  lk.unlock();

  // Releasing the snapshot moves each quarantined segment whose last
  // handle it held. The move is best-effort: the manifest already
  // records the quarantine, so a failure is finished by the next Open.
  version.reset();
  for (uint64_t id : report.quarantined_ids) {
    if (SegmentDiskBytes(dir_, id) > 0) {
      report.notes.push_back("quarantine move pending: segment " +
                             std::to_string(id) +
                             " is still held by a read or compaction, or "
                             "its move failed");
    }
  }
  obs::MetricsRegistry::Global()
      .GetCounter("lsm.scrub.segments_checked")
      ->Add(report.segments_checked);
  obs::EventTrace::Global().Record(obs::EventKind::kScrub, dir_,
                                   report.segments_checked,
                                   report.quarantined_ids.size());
  return report;
}

bool IngestEngine::read_only() const {
  std::lock_guard<std::mutex> g(mu_);
  return !bg_error_.ok();
}

Status IngestEngine::background_error() const {
  std::lock_guard<std::mutex> g(mu_);
  return bg_error_;
}

std::vector<QuarantinedSegment> IngestEngine::quarantined() const {
  std::lock_guard<std::mutex> g(mu_);
  return current_->quarantined;
}

uint64_t IngestEngine::rows() const {
  std::lock_guard<std::mutex> g(mu_);
  uint64_t n = 0;
  for (const auto& s : current_->segments) n += s->info.rows;
  if (imm_ != nullptr) n += imm_->rows();
  n += mem_->rows();
  return n;
}

std::vector<SegmentInfo> IngestEngine::segments() const {
  std::lock_guard<std::mutex> g(mu_);
  std::vector<SegmentInfo> out;
  for (const auto& s : current_->segments) out.push_back(s->info);
  return out;
}

EngineStats IngestEngine::stats() const {
  EngineStats s;
  for (size_t i = 0; i < std::size(kStatCounters); ++i) {
    s.*kStatCounters[i].field = stats_[i].load(std::memory_order_relaxed);
  }
  return s;
}

}  // namespace fcbench::db::lsm

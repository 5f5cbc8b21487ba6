// Fault-injection tests (src/util/failpoint.h): the failpoint registry's
// spec grammar and trigger semantics, targeted regressions for the
// hardened error paths (ENOSPC in group commit, failed fsync during
// segment publish, WAL heal poisoning, scrub + quarantine), and the
// exhaustive fault sweep: every registered failpoint site is fired at
// every hit index of an ingest+flush+compact workload, asserting either
// success-after-retry or a clean typed error with zero acknowledged-data
// loss and idempotent recovery.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include <algorithm>
#include <chrono>
#include <thread>

#include "db/column_store.h"
#include "db/lsm/lsm_engine.h"
#include "db/lsm/wal.h"
#include "db/shard/sharded_engine.h"
#include "obs/span.h"
#include "util/failpoint.h"
#include "util/fs.h"

namespace fcbench::db::lsm {
namespace {

// One pool worker: deterministic one-shot (@N) injection — a hit index
// always lands on the same operation, so every sweep run reproduces.
const bool g_single_thread = [] {
  ::setenv("FCBENCH_THREADS", "1", /*overwrite=*/0);
  return true;
}();

std::string UniqueDir(const std::string& tag) {
  return "/tmp/fcbench_fault_" + std::to_string(::getpid()) + "_" + tag;
}

/// Removes dir and one level of subdirectories (the quarantine/ dir).
void RemoveTree(const std::string& dir) {
  auto names = fs::ListDir(dir);
  if (names.ok()) {
    for (const auto& n : names.value()) {
      const std::string p = fs::JoinPath(dir, n);
      auto sub = fs::ListDir(p);
      if (sub.ok()) {
        for (const auto& m : sub.value()) fs::RemoveFile(fs::JoinPath(p, m));
        ::rmdir(p.c_str());
      } else {
        fs::RemoveFile(p);
      }
    }
  }
  ::rmdir(dir.c_str());
}

/// Every fault test runs with a clean registry and leaves one behind.
class FaultTest : public ::testing::Test {
 protected:
  void SetUp() override { fail::FailPoints::ClearAll(); }
  void TearDown() override {
    fail::FailPoints::ClearAll();
    fail::FailPoints::EnableCounting(false);
  }
};

// ---------------------------------------------------------------------------
// FailPoints: spec grammar and trigger semantics
// ---------------------------------------------------------------------------

using FailPointsTest = FaultTest;

TEST_F(FailPointsTest, RejectsMalformedSpecs) {
  EXPECT_FALSE(fail::FailPoints::Set("x", "bogus").ok());
  EXPECT_FALSE(fail::FailPoints::Set("x", "err@0").ok());
  EXPECT_FALSE(fail::FailPoints::Set("x", "err@p1.5").ok());
  EXPECT_FALSE(fail::FailPoints::Set("x", "err@p0.5:sxyz").ok());
  EXPECT_FALSE(fail::FailPoints::Set("x", "off@3").ok());
  EXPECT_FALSE(fail::FailPoints::Set("x", "err@every-0").ok());
  EXPECT_FALSE(fail::FailPoints::Set("", "err").ok());
  EXPECT_FALSE(fail::FailPoints::Configure("noequalsign").ok());
  EXPECT_TRUE(
      fail::FailPoints::Configure("a=err@3; b=enospc ;; c=short@every-2")
          .ok());
}

TEST_F(FailPointsTest, AtHitFiresExactlyOnce) {
  ASSERT_TRUE(fail::FailPoints::Set("t.athit", "err@3").ok());
  for (int hit = 1; hit <= 6; ++hit) {
    fail::Decision d = fail::Evaluate("t.athit");
    EXPECT_EQ(d.fire, hit == 3) << "hit " << hit;
    if (d.fire) {
      EXPECT_EQ(d.err, EIO);
      EXPECT_FALSE(d.short_write);
    }
  }
}

TEST_F(FailPointsTest, EveryNFiresPeriodically) {
  ASSERT_TRUE(fail::FailPoints::Set("t.every", "enospc@every-2").ok());
  for (int hit = 1; hit <= 6; ++hit) {
    fail::Decision d = fail::Evaluate("t.every");
    EXPECT_EQ(d.fire, hit % 2 == 0) << "hit " << hit;
    if (d.fire) {
      EXPECT_EQ(d.err, ENOSPC);
    }
  }
}

TEST_F(FailPointsTest, BareActionFiresAlwaysAndOffDisarms) {
  ASSERT_TRUE(fail::FailPoints::Set("t.always", "short").ok());
  for (int hit = 0; hit < 3; ++hit) {
    fail::Decision d = fail::Evaluate("t.always");
    EXPECT_TRUE(d.fire);
    EXPECT_TRUE(d.short_write);
    EXPECT_EQ(d.err, EIO);
  }
  ASSERT_TRUE(fail::FailPoints::Set("t.always", "off").ok());
  EXPECT_FALSE(fail::Evaluate("t.always").fire);
}

TEST_F(FailPointsTest, ProbabilisticIsSeedDeterministic) {
  auto sample = [](const std::string& spec) {
    EXPECT_TRUE(fail::FailPoints::Set("t.prob", spec).ok());
    std::vector<bool> fired;
    for (int i = 0; i < 64; ++i) fired.push_back(fail::Evaluate("t.prob").fire);
    return fired;
  };
  const std::vector<bool> a = sample("err@p0.5:s7");
  const std::vector<bool> b = sample("err@p0.5:s7");
  EXPECT_EQ(a, b);  // re-arming with the same seed replays the pattern
  // p=0.5 over 64 hits: all-same would be a broken RNG (P = 2^-63).
  EXPECT_NE(std::count(a.begin(), a.end(), true), 0);
  EXPECT_NE(std::count(a.begin(), a.end(), false), 0);
}

TEST_F(FailPointsTest, CountingEnumeratesSites) {
  fail::FailPoints::EnableCounting(true);
  fail::FailPoints::ResetCounters();
  fail::Evaluate("t.counted");
  fail::Evaluate("t.counted");
  EXPECT_EQ(fail::FailPoints::HitCount("t.counted"), 2u);
  const auto sites = fail::FailPoints::Sites();
  EXPECT_NE(std::find(sites.begin(), sites.end(), "t.counted"), sites.end());
  fail::FailPoints::ResetCounters();
  EXPECT_EQ(fail::FailPoints::HitCount("t.counted"), 0u);
}

TEST_F(FailPointsTest, InjectedStatusIsTypedAndAttributed) {
  fail::Decision d;
  d.fire = true;
  d.err = ENOSPC;
  Status st = fail::InjectedStatus("wal.append", d, "/db/wal-000001.log");
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(st.message().find("wal.append"), std::string::npos);
  EXPECT_NE(st.message().find("/db/wal-000001.log"), std::string::npos);
  d.err = EIO;
  EXPECT_EQ(fail::InjectedStatus("fs.sync", d, "").code(),
            StatusCode::kIoError);
}

// ---------------------------------------------------------------------------
// util/fs under injection
// ---------------------------------------------------------------------------

class FsFaultTest : public FaultTest {
 protected:
  void SetUp() override {
    FaultTest::SetUp();
    dir_ = UniqueDir(
        ::testing::UnitTest::GetInstance()->current_test_info()->name());
    RemoveTree(dir_);
    ASSERT_TRUE(fs::CreateDir(dir_).ok());
  }
  void TearDown() override {
    FaultTest::TearDown();
    RemoveTree(dir_);
  }
  std::string dir_;
};

TEST_F(FsFaultTest, FailedAtomicWriteLeavesTargetAndNoTemp) {
  const std::string path = fs::JoinPath(dir_, "file");
  Buffer v1, v2;
  v1.Append("version-1", 9);
  v2.Append("version-2", 9);
  ASSERT_TRUE(fs::WriteFileAtomic(path, v1.span()).ok());

  ASSERT_TRUE(fail::FailPoints::Set("fs.write_atomic", "err@1").ok());
  EXPECT_FALSE(fs::WriteFileAtomic(path, v2.span()).ok());
  fail::FailPoints::ClearAll();

  auto back = fs::ReadFile(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(std::string(reinterpret_cast<const char*>(back.value().data()),
                        back.value().size()),
            "version-1");
  auto names = fs::ListDir(dir_);
  ASSERT_TRUE(names.ok());
  for (const auto& n : names.value()) EXPECT_FALSE(fs::IsTempPath(n)) << n;
}

TEST_F(FsFaultTest, ShortWriteLandsPrefixAndTruncateHeals) {
  const std::string path = fs::JoinPath(dir_, "wal");
  auto f = fs::AppendFile::Create(path, /*durable=*/false);
  ASSERT_TRUE(f.ok());
  Buffer data(100);
  for (size_t i = 0; i < data.size(); ++i) data.data()[i] = uint8_t(i);
  ASSERT_TRUE(f.value().Append(data.span()).ok());

  ASSERT_TRUE(fail::FailPoints::Set("fs.append", "short@1").ok());
  Status st = f.value().Append(data.span());
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find(path), std::string::npos);
  fail::FailPoints::ClearAll();

  // Torn write: half the bytes landed, offset() did not advance.
  EXPECT_EQ(f.value().offset(), 100u);
  auto size = fs::FileSize(path);
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(size.value(), 150u);

  // Healing truncates back to the last known-good length.
  ASSERT_TRUE(f.value().TruncateTo(f.value().offset()).ok());
  size = fs::FileSize(path);
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(size.value(), 100u);
  ASSERT_TRUE(f.value().Append(data.span()).ok());
  ASSERT_TRUE(f.value().Close().ok());
  size = fs::FileSize(path);
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(size.value(), 200u);
}

TEST_F(FsFaultTest, CloseReportsFailedFinalFsync) {
  const std::string path = fs::JoinPath(dir_, "durable");
  auto f = fs::AppendFile::Create(path, /*durable=*/true);
  ASSERT_TRUE(f.ok());
  Buffer data(10);
  ASSERT_TRUE(f.value().Append(data.span()).ok());

  ASSERT_TRUE(fail::FailPoints::Set("fs.sync", "err@1").ok());
  Status st = f.value().Close();
  EXPECT_FALSE(st.ok());  // the unsynced tail's fsync failed: reported
  EXPECT_NE(st.message().find(path), std::string::npos);
  EXPECT_FALSE(f.value().is_open());
}

TEST_F(FsFaultTest, FailedPreallocateHealsLikeAFailedAppend) {
  const std::string path = fs::JoinPath(dir_, "durable");
  auto f = fs::AppendFile::Create(path, /*durable=*/true);
  ASSERT_TRUE(f.ok());
  Buffer data(100);
  for (size_t i = 0; i < data.size(); ++i) data.data()[i] = uint8_t(i + 1);
  ASSERT_TRUE(f.value().Append(data.span()).ok());

  // The first sync must write the zero tail; that write fails part-way.
  ASSERT_TRUE(fail::FailPoints::Set("fs.preallocate", "short@1").ok());
  Status st = f.value().Sync();
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find(path), std::string::npos);
  fail::FailPoints::ClearAll();

  // Healing cuts back to the last good length, as after a torn append;
  // the next sync writes the tail again and close seals the file.
  ASSERT_TRUE(f.value().TruncateTo(0).ok());
  auto size = fs::FileSize(path);
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(size.value(), 0u);
  ASSERT_TRUE(f.value().Append(data.span()).ok());
  ASSERT_TRUE(f.value().Sync().ok());
  size = fs::FileSize(path);
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(size.value(), fs::AppendFile::kZeroTailBytes);
  ASSERT_TRUE(f.value().Close().ok());
  auto back = fs::ReadFile(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().ToVector(), data.ToVector());
}

TEST_F(FsFaultTest, EnospcSurfacesAsResourceExhausted) {
  const std::string path = fs::JoinPath(dir_, "full");
  auto f = fs::AppendFile::Create(path, /*durable=*/false);
  ASSERT_TRUE(f.ok());
  ASSERT_TRUE(fail::FailPoints::Set("fs.append", "enospc@1").ok());
  Buffer data(10);
  Status st = f.value().Append(data.span());
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
}

// ---------------------------------------------------------------------------
// Shared engine workload
// ---------------------------------------------------------------------------

std::vector<ColumnDef> FaultSchema() {
  ColumnDef v, w, s;
  v.name = "v";
  w.name = "w";
  s.name = "s";
  return {v, w, s};
}

EngineOptions FaultOptions() {
  EngineOptions o;
  o.memtable_bytes = 2 << 10;
  o.wal_segment_bytes = 4 << 10;
  o.sync_on_commit = true;
  o.background_flush = false;  // deterministic hit indices
  o.flush_compressor = "gorilla";
  o.compact_compressor = "gorilla";
  o.compact_fanout = 2;
  o.io_retry_attempts = 2;
  o.io_retry_backoff_ms = 0;
  return o;
}

std::vector<double> BatchRows(size_t b, size_t nrows) {
  std::vector<double> rows;
  for (size_t r = 0; r < nrows; ++r) {
    const double v = static_cast<double>(b) * 1000.0 + static_cast<double>(r);
    rows.push_back(v);
    rows.push_back(v * 0.5);
    rows.push_back(v + 0.25);
  }
  return rows;
}

constexpr size_t kSweepBatches = 8;
constexpr size_t kSweepRows = 25;

/// The standard ingest+flush+compact workload, tolerant of injected
/// failures: every step may error. Returns the 'v' values of every
/// ACKNOWLEDGED batch (AppendBatch returned OK), in ack order — the
/// exact set recovery must reproduce.
std::vector<double> RunWorkload(const std::string& dir) {
  std::vector<double> acked;
  auto engr = IngestEngine::Open(dir, FaultSchema(), FaultOptions());
  if (!engr.ok()) return acked;  // a faulted Open is a clean typed error
  auto& eng = engr.value();
  for (size_t b = 0; b < kSweepBatches; ++b) {
    if (eng->AppendBatch(BatchRows(b, kSweepRows)).ok()) {
      for (size_t r = 0; r < kSweepRows; ++r) {
        acked.push_back(static_cast<double>(b) * 1000.0 +
                        static_cast<double>(r));
      }
    }
    if (b == kSweepBatches / 2) eng->Flush();  // mid-run flush, may fail
  }
  eng->Flush();
  eng->Compact();
  return acked;  // destructor joins background work and closes the WAL
}

/// Recovery invariants checked after every faulted run (all failpoints
/// cleared): reopen is green, the recovered column equals the acked
/// values exactly (no loss, no resurrection), recovery is idempotent,
/// and the store is writable again.
void CheckRecovery(const std::string& dir, const std::vector<double>& acked) {
  {
    auto engr = IngestEngine::Open(dir, FaultSchema(), FaultOptions());
    ASSERT_TRUE(engr.ok()) << engr.status().ToString();
    auto v = engr.value()->ReadColumn("v");
    ASSERT_TRUE(v.ok()) << v.status().ToString();
    ASSERT_EQ(v.value(), acked);
  }
  // Idempotence: recovering a second time yields the identical store.
  auto engr = IngestEngine::Open(dir, FaultSchema(), FaultOptions());
  ASSERT_TRUE(engr.ok()) << engr.status().ToString();
  auto v = engr.value()->ReadColumn("v");
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  ASSERT_EQ(v.value(), acked);
  EXPECT_FALSE(engr.value()->read_only());
  ASSERT_TRUE(engr.value()->AppendBatch(BatchRows(999, 1)).ok());
}

// ---------------------------------------------------------------------------
// Engine regressions under targeted injection
// ---------------------------------------------------------------------------

class EngineFaultTest : public FsFaultTest {};

TEST_F(EngineFaultTest, EnospcDuringGroupCommitRejectsOnlyThatBatch) {
  auto engr = IngestEngine::Open(dir_, FaultSchema(), FaultOptions());
  ASSERT_TRUE(engr.ok());
  auto& eng = engr.value();
  std::vector<double> acked;
  ASSERT_TRUE(eng->AppendBatch(BatchRows(0, 5)).ok());
  for (size_t r = 0; r < 5; ++r) acked.push_back(r);

  // The disk "fills up" exactly at the next group commit's write.
  ASSERT_TRUE(fail::FailPoints::Set("fs.append", "enospc@1").ok());
  Status st = eng->AppendBatch(BatchRows(1, 5));
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);

  // Rejecting the batch did not degrade the engine: the condition was
  // transient (the one-shot is spent) and later batches commit fine.
  EXPECT_FALSE(eng->read_only());
  ASSERT_TRUE(eng->AppendBatch(BatchRows(2, 5)).ok());
  for (size_t r = 0; r < 5; ++r) acked.push_back(2000.0 + r);
  fail::FailPoints::ClearAll();

  auto v = eng->ReadColumn("v");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value(), acked);  // the rejected batch never surfaces
  engr.value().reset();
  CheckRecovery(dir_, acked);
}

TEST_F(EngineFaultTest, FailedFsyncDuringPublishSucceedsAfterRetry) {
  auto opts = FaultOptions();
  opts.memtable_bytes = 1 << 20;  // no watermark flush
  auto engr = IngestEngine::Open(dir_, FaultSchema(), opts);
  ASSERT_TRUE(engr.ok());
  auto& eng = engr.value();
  ASSERT_TRUE(eng->AppendBatch(BatchRows(0, 40)).ok());

  // Hit 1 is the WAL rotation's fsync (passes); hit 2 is the first
  // column file's fsync inside the segment publish — a one-shot
  // transient failure the bounded retry must absorb.
  ASSERT_TRUE(fail::FailPoints::Set("fs.sync", "err@2").ok());
  Status st = eng->Flush();
  EXPECT_TRUE(st.ok()) << st.ToString();
  fail::FailPoints::ClearAll();

  EXPECT_FALSE(eng->read_only());
  EXPECT_EQ(eng->segments().size(), 1u);
  auto v = eng->ReadColumn("v");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value().size(), 40u);
}

TEST_F(EngineFaultTest, ExhaustedFlushRetriesDegradeToReadOnly) {
  auto opts = FaultOptions();
  opts.memtable_bytes = 1 << 20;
  auto engr = IngestEngine::Open(dir_, FaultSchema(), opts);
  ASSERT_TRUE(engr.ok());
  auto& eng = engr.value();
  std::vector<double> acked;
  for (size_t b = 0; b < 3; ++b) {
    ASSERT_TRUE(eng->AppendBatch(BatchRows(b, 20)).ok());
    for (size_t r = 0; r < 20; ++r) acked.push_back(b * 1000.0 + r);
  }

  // A sticky segment-write failure: both retry attempts fail.
  ASSERT_TRUE(fail::FailPoints::Set("lsm.flush", "err").ok());
  Status st = eng->Flush();
  EXPECT_FALSE(st.ok());
  fail::FailPoints::ClearAll();

  // Degraded to read-only with the root cause attributed...
  EXPECT_TRUE(eng->read_only());
  const Status bg = eng->background_error();
  EXPECT_EQ(bg.code(), StatusCode::kIoError);
  EXPECT_NE(bg.message().find("injected fault"), std::string::npos);
  EXPECT_NE(bg.message().find("2 attempts"), std::string::npos);
  Status append_st = eng->AppendBatch(BatchRows(9, 1));
  EXPECT_FALSE(append_st.ok());
  EXPECT_NE(append_st.message().find("read-only"), std::string::npos);
  EXPECT_EQ(append_st.code(), StatusCode::kIoError);  // root cause's code

  // ...while reads keep serving EVERYTHING acknowledged: the memtable
  // that failed to flush is retained (its rows are WAL-durable).
  auto v = eng->ReadColumn("v");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value(), acked);

  engr.value().reset();
  CheckRecovery(dir_, acked);
}

/// The event tail is the post-mortem artifact: after an injected fault
/// exhausts the flush retries and degrades a fresh engine in `dir`, the
/// tail of the global collector's events must tell the story — the
/// retry/backoff attempts and the degradation itself, attributed to the
/// failed engine's dir.
void DegradeAndCheckEventTail(const std::string& dir) {
  auto opts = FaultOptions();
  opts.memtable_bytes = 1 << 20;
  auto engr = IngestEngine::Open(dir, FaultSchema(), opts);
  ASSERT_TRUE(engr.ok());
  auto& eng = engr.value();
  ASSERT_TRUE(eng->AppendBatch(BatchRows(0, 20)).ok());

  const uint64_t t0 = obs::MonotonicNanos();
  ASSERT_TRUE(fail::FailPoints::Set("lsm.flush", "err").ok());
  EXPECT_FALSE(eng->Flush().ok());
  fail::FailPoints::ClearAll();
  ASSERT_TRUE(eng->read_only());

  // Only events recorded by THIS degradation (stamped after t0): the
  // collector is process-global and other suites in the binary share it.
  // Snapshot() is publish order.
  bool saw_retry = false, saw_fail = false, saw_degraded = false;
  size_t retry_pos = 0, degraded_pos = 0;
  const std::vector<obs::SpanRecord> recs =
      obs::TraceCollector::Global().Snapshot();
  for (size_t i = 0; i < recs.size(); ++i) {
    const obs::SpanRecord& e = recs[i];
    if (e.span_id != 0 || e.start_nanos < t0) continue;  // spans, old events
    if (std::string(e.tag).find(dir.substr(0, 40)) == std::string::npos) {
      continue;  // not ours
    }
    const std::string name(e.name);
    if (name == "retry-backoff") {
      saw_retry = true;
      retry_pos = i;
      EXPECT_GE(e.a, 1u);  // a = attempt index
    } else if (name == "flush-fail") {
      saw_fail = true;
    } else if (name == "degraded") {
      saw_degraded = true;
      degraded_pos = i;
    }
  }
  EXPECT_TRUE(saw_retry);
  EXPECT_TRUE(saw_fail);
  EXPECT_TRUE(saw_degraded);
  EXPECT_LT(retry_pos, degraded_pos);  // backoff precedes degradation

  // The rendered dump (what the degradation hook printed to stderr)
  // names both phases.
  const std::string dump = obs::TraceCollector::Global().DumpEvents();
  EXPECT_NE(dump.find("retry-backoff"), std::string::npos);
  EXPECT_NE(dump.find("degraded"), std::string::npos);
}

TEST_F(EngineFaultTest, DegradationLeavesRetryAndDegradedEventsInTrace) {
  DegradeAndCheckEventTail(dir_);
}

TEST_F(EngineFaultTest, DegradationEventsSurviveFullSampling) {
  // Every root sampled: the flush's spans share the collector's ring
  // with its events, and the event tail must tell the same story.
  obs::SetTraceSampling(1);
  DegradeAndCheckEventTail(dir_);
  obs::SetTraceSampling(0);
}

TEST_F(EngineFaultTest, WalPoisonedWhenHealFails) {
  Wal::Options wopt;
  auto walr = Wal::Open(dir_, 0, wopt);
  ASSERT_TRUE(walr.ok());
  auto& wal = walr.value();
  Buffer rec;
  rec.Append("acked-record", 12);
  ASSERT_TRUE(wal->Append(Wal::kTypeRows, rec.span()).ok());
  ASSERT_TRUE(wal->Commit().ok());

  // A torn write whose heal (truncate) also fails: the segment tail is
  // in an unknown state, so the WAL must refuse all further work.
  ASSERT_TRUE(fail::FailPoints::Set("fs.append", "short@1").ok());
  ASSERT_TRUE(fail::FailPoints::Set("fs.truncate", "err@1").ok());
  ASSERT_TRUE(wal->Append(Wal::kTypeRows, rec.span()).ok());
  EXPECT_FALSE(wal->Commit().ok());
  fail::FailPoints::ClearAll();

  EXPECT_FALSE(wal->poisoned().ok());
  EXPECT_NE(wal->poisoned().message().find("poisoned"), std::string::npos);
  Status st = wal->Append(Wal::kTypeRows, rec.span());
  EXPECT_FALSE(st.ok());  // sticky: fails fast with the recorded cause
  wal->Close();

  // Recovery: prefix truncation drops the torn bytes, keeps the ack'd
  // record — poisoning never loses acknowledged data.
  auto replay = WalReader::ReplayDir(dir_, 0);
  ASSERT_TRUE(replay.ok());
  ASSERT_EQ(replay.value().records.size(), 1u);
  EXPECT_TRUE(replay.value().truncated);
}

TEST_F(EngineFaultTest, FailedPreallocateRejectsOnlyThatCommit) {
  Wal::Options wopt;
  auto walr = Wal::Open(dir_, 0, wopt);
  ASSERT_TRUE(walr.ok());
  auto& wal = walr.value();
  Buffer small, big(fs::AppendFile::kZeroTailBytes);
  small.Append("acked-record", 12);
  for (size_t i = 0; i < big.size(); ++i) big.data()[i] = uint8_t(i * 7 + 1);
  ASSERT_TRUE(wal->Append(Wal::kTypeRows, small.span()).ok());
  ASSERT_TRUE(wal->Commit().ok());

  // A record that crosses the zeroed frontier needs a new zero tail; a
  // full disk there rejects that commit, the segment heals, and the WAL
  // stays writable.
  ASSERT_TRUE(fail::FailPoints::Set("fs.preallocate", "enospc@1").ok());
  ASSERT_TRUE(wal->Append(Wal::kTypeRows, big.span()).ok());
  EXPECT_EQ(wal->Commit().code(), StatusCode::kResourceExhausted);
  fail::FailPoints::ClearAll();
  EXPECT_TRUE(wal->poisoned().ok());
  ASSERT_TRUE(wal->Append(Wal::kTypeRows, small.span()).ok());
  ASSERT_TRUE(wal->Commit().ok());

  // Failing the heal too poisons the WAL, as for a torn append. Both
  // acknowledged records still replay.
  ASSERT_TRUE(fail::FailPoints::Set("fs.preallocate", "err@1").ok());
  ASSERT_TRUE(fail::FailPoints::Set("fs.truncate", "err@1").ok());
  ASSERT_TRUE(wal->Append(Wal::kTypeRows, big.span()).ok());
  EXPECT_FALSE(wal->Commit().ok());
  fail::FailPoints::ClearAll();
  EXPECT_FALSE(wal->poisoned().ok());
  wal->Close();

  auto replay = WalReader::ReplayDir(dir_, 0);
  ASSERT_TRUE(replay.ok());
  ASSERT_GE(replay.value().records.size(), 2u);
  EXPECT_EQ(replay.value().records[0].payload.ToVector(), small.ToVector());
  EXPECT_EQ(replay.value().records[1].payload.ToVector(), small.ToVector());
}

// ---------------------------------------------------------------------------
// Scrub + quarantine
// ---------------------------------------------------------------------------

TEST_F(EngineFaultTest, ScrubQuarantinesBitFlippedSegment) {
  auto opts = FaultOptions();
  opts.memtable_bytes = 1 << 20;
  opts.compact_fanout = 0;  // keep the two segments separate
  std::vector<double> kept;  // values that must survive the quarantine
  uint64_t bad_id = 0;
  {
    auto engr = IngestEngine::Open(dir_, FaultSchema(), opts);
    ASSERT_TRUE(engr.ok());
    auto& eng = engr.value();
    ASSERT_TRUE(eng->AppendBatch(BatchRows(0, 40)).ok());
    ASSERT_TRUE(eng->Flush().ok());  // segment A (will be corrupted)
    ASSERT_TRUE(eng->AppendBatch(BatchRows(1, 40)).ok());
    ASSERT_TRUE(eng->Flush().ok());  // segment B
    ASSERT_TRUE(eng->AppendBatch(BatchRows(2, 10)).ok());  // memtable tail
    for (size_t r = 0; r < 40; ++r) kept.push_back(1000.0 + r);
    for (size_t r = 0; r < 10; ++r) kept.push_back(2000.0 + r);

    auto segs = eng->segments();
    ASSERT_EQ(segs.size(), 2u);
    bad_id = segs[0].id;

    // Plant a single bit flip in the middle of a cold column file.
    char name[32];
    std::snprintf(name, sizeof(name), "seg-%06llu.0.col",
                  static_cast<unsigned long long>(bad_id));
    const std::string path = fs::JoinPath(dir_, name);
    auto bytes = fs::ReadFile(path);
    ASSERT_TRUE(bytes.ok());
    Buffer flipped = std::move(bytes).TakeValue();
    flipped.data()[flipped.size() / 2] ^= 0x01;
    ASSERT_TRUE(
        fs::WriteFileAtomic(path, flipped.span(), /*durable=*/false).ok());

    auto rep = eng->Scrub();
    ASSERT_TRUE(rep.ok()) << rep.status().ToString();
    EXPECT_EQ(rep.value().segments_checked, 2u);
    EXPECT_TRUE(rep.value().wal_clean);
    ASSERT_EQ(rep.value().quarantined_ids, std::vector<uint64_t>{bad_id});

    // The corrupt segment's files moved aside; the rest keeps serving.
    auto names = fs::ListDir(dir_);
    ASSERT_TRUE(names.ok());
    for (const auto& n : names.value()) {
      EXPECT_EQ(n.find(name), std::string::npos) << n;
    }
    auto qnames = fs::ListDir(fs::JoinPath(dir_, "quarantine"));
    ASSERT_TRUE(qnames.ok());
    EXPECT_NE(std::find(qnames.value().begin(), qnames.value().end(),
                        std::string(name)),
              qnames.value().end());

    auto v = eng->ReadColumn("v");
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(v.value(), kept);
    EXPECT_FALSE(eng->read_only());
    ASSERT_EQ(eng->quarantined().size(), 1u);
    EXPECT_EQ(eng->quarantined()[0].id, bad_id);
    EXPECT_EQ(eng->quarantined()[0].rows, 40u);
    EXPECT_FALSE(eng->quarantined()[0].reason.empty());

    // A second pass finds nothing new (quarantined segments are not
    // re-checked) — scrubbing is idempotent.
    auto rep2 = eng->Scrub();
    ASSERT_TRUE(rep2.ok());
    EXPECT_EQ(rep2.value().segments_checked, 1u);
    EXPECT_TRUE(rep2.value().quarantined_ids.empty());
  }

  // The quarantine survives reopen, and the engine stays writable.
  auto engr = IngestEngine::Open(dir_, FaultSchema(), opts);
  ASSERT_TRUE(engr.ok()) << engr.status().ToString();
  auto v = engr.value()->ReadColumn("v");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value(), kept);
  ASSERT_EQ(engr.value()->quarantined().size(), 1u);
  EXPECT_EQ(engr.value()->quarantined()[0].id, bad_id);
  EXPECT_TRUE(engr.value()->AppendBatch(BatchRows(3, 2)).ok());
}

// ---------------------------------------------------------------------------
// A failed manifest install leaves the live engine unchanged
// ---------------------------------------------------------------------------

/// Sorted names of every `seg-<id>.*` file in `dir` whose id is in `ids`.
std::vector<std::string> SegmentFiles(const std::string& dir,
                                      const std::vector<uint64_t>& ids) {
  std::vector<std::string> out;
  auto names = fs::ListDir(dir);
  if (!names.ok()) return out;
  for (const auto& n : names.value()) {
    for (uint64_t id : ids) {
      char prefix[32];
      std::snprintf(prefix, sizeof(prefix), "seg-%06llu.",
                    static_cast<unsigned long long>(id));
      if (n.rfind(prefix, 0) == 0) out.push_back(n);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

bool SameSegments(const std::vector<SegmentInfo>& a,
                  const std::vector<SegmentInfo>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].id != b[i].id || a[i].rows != b[i].rows ||
        a[i].level != b[i].level) {
      return false;
    }
  }
  return true;
}

TEST_F(EngineFaultTest, FailedCompactionManifestLeavesEngineUnchanged) {
  auto opts = FaultOptions();
  opts.memtable_bytes = 1 << 20;
  opts.compact_fanout = 0;  // compaction only when asked
  auto engr = IngestEngine::Open(dir_, FaultSchema(), opts);
  ASSERT_TRUE(engr.ok());
  auto& eng = engr.value();
  std::vector<double> acked;
  for (size_t b = 0; b < 3; ++b) {
    ASSERT_TRUE(eng->AppendBatch(BatchRows(b, 30)).ok());
    ASSERT_TRUE(eng->Flush().ok());
    for (size_t r = 0; r < 30; ++r) acked.push_back(b * 1000.0 + r);
  }
  const std::vector<SegmentInfo> before = eng->segments();
  ASSERT_EQ(before.size(), 3u);
  std::vector<uint64_t> ids;
  for (const auto& s : before) ids.push_back(s.id);
  const std::vector<std::string> files = SegmentFiles(dir_, ids);
  ASSERT_FALSE(files.empty());

  // Every attempt of the merged run's manifest publish fails.
  ASSERT_TRUE(fail::FailPoints::Set("lsm.manifest", "err").ok());
  Status st = eng->Compact();
  fail::FailPoints::ClearAll();
  EXPECT_FALSE(st.ok());

  EXPECT_TRUE(SameSegments(eng->segments(), before));
  EXPECT_EQ(SegmentFiles(dir_, ids), files);
  auto v = eng->ReadColumn("v");
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_EQ(v.value(), acked);
  EXPECT_FALSE(eng->read_only());  // a failed compaction does not degrade

  // With the fault cleared the same run merges.
  ASSERT_TRUE(eng->Compact().ok());
  const std::vector<SegmentInfo> after = eng->segments();
  ASSERT_EQ(after.size(), 1u);
  EXPECT_EQ(after[0].rows, 90u);
  EXPECT_EQ(after[0].level, 1u);
  v = eng->ReadColumn("v");
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_EQ(v.value(), acked);
  engr.value().reset();
  EXPECT_TRUE(SegmentFiles(dir_, ids).empty());
  CheckRecovery(dir_, acked);
}

TEST_F(EngineFaultTest, FailedCompactionManifestDropsMergedFiles) {
  auto opts = FaultOptions();
  opts.memtable_bytes = 1 << 20;
  opts.compact_fanout = 0;  // compaction only when asked
  auto engr = IngestEngine::Open(dir_, FaultSchema(), opts);
  ASSERT_TRUE(engr.ok());
  auto& eng = engr.value();
  std::vector<double> acked;
  for (size_t b = 0; b < 3; ++b) {
    ASSERT_TRUE(eng->AppendBatch(BatchRows(b, 30)).ok());
    ASSERT_TRUE(eng->Flush().ok());
    for (size_t r = 0; r < 30; ++r) acked.push_back(b * 1000.0 + r);
  }
  std::vector<uint64_t> live;
  for (const auto& s : eng->segments()) live.push_back(s.id);
  const std::vector<std::string> live_files = SegmentFiles(dir_, live);
  ASSERT_FALSE(live_files.empty());
  // Each attempt takes a fresh id above the live ones for its merged run.
  const std::vector<uint64_t> merged = {live.back() + 1, live.back() + 2,
                                        live.back() + 3};
  ASSERT_TRUE(SegmentFiles(dir_, merged).empty());

  // Each compaction writes a merged segment whose manifest publish then
  // fails; the MANIFEST on disk never names it, so nothing may stay.
  ASSERT_TRUE(fail::FailPoints::Set("lsm.manifest", "err").ok());
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(eng->Compact().ok());
    EXPECT_TRUE(SegmentFiles(dir_, merged).empty())
        << "after compaction " << i;
    EXPECT_EQ(SegmentFiles(dir_, live), live_files)
        << "after compaction " << i;
  }
  fail::FailPoints::ClearAll();

  ASSERT_TRUE(eng->Compact().ok());
  ASSERT_EQ(eng->segments().size(), 1u);
  engr.value().reset();
  CheckRecovery(dir_, acked);
}

TEST_F(EngineFaultTest, CompactionManifestRenamedButNotSyncedKeepsMergedFiles) {
  auto opts = FaultOptions();
  opts.memtable_bytes = 1 << 20;
  opts.compact_fanout = 0;
  opts.io_retry_attempts = 1;
  auto load = [&](const std::string& dir, std::vector<double>* acked) {
    auto engr = IngestEngine::Open(dir, FaultSchema(), opts);
    EXPECT_TRUE(engr.ok());
    for (size_t b = 0; b < 3; ++b) {
      EXPECT_TRUE(engr.value()->AppendBatch(BatchRows(b, 30)).ok());
      EXPECT_TRUE(engr.value()->Flush().ok());
      for (size_t r = 0; r < 30; ++r) acked->push_back(b * 1000.0 + r);
    }
    return std::move(engr).TakeValue();
  };

  // The engine MANIFEST's directory fsync is the last one a compaction
  // makes (dropping the run syncs nothing); count them on a probe engine.
  const std::string probe = dir_ + "_probe";
  RemoveTree(probe);
  uint64_t dir_syncs = 0;
  {
    std::vector<double> unused;
    auto eng = load(probe, &unused);
    fail::FailPoints::EnableCounting(true);
    fail::FailPoints::ResetCounters();
    ASSERT_TRUE(eng->Compact().ok());
    dir_syncs = fail::FailPoints::HitCount("fs.sync_dir");
    fail::FailPoints::EnableCounting(false);
  }
  RemoveTree(probe);
  ASSERT_GT(dir_syncs, 0u);

  std::vector<double> acked;
  auto eng = load(dir_, &acked);
  const uint64_t merged_id = eng->segments().back().id + 1;
  ASSERT_TRUE(fail::FailPoints::Set(
                  "fs.sync_dir", "err@" + std::to_string(dir_syncs))
                  .ok());
  EXPECT_FALSE(eng->Compact().ok());
  fail::FailPoints::ClearAll();
  // The renamed MANIFEST names the merged segment, so a crash now would
  // recover from it: its files must stay.
  EXPECT_EQ(eng->segments().size(), 3u);
  EXPECT_FALSE(SegmentFiles(dir_, {merged_id}).empty());
  eng.reset();

  auto reopened = IngestEngine::Open(dir_, FaultSchema(), opts);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  ASSERT_EQ(reopened.value()->segments().size(), 1u);
  EXPECT_EQ(reopened.value()->segments()[0].id, merged_id);
  auto v = reopened.value()->ReadColumn("v");
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_EQ(v.value(), acked);
}

TEST_F(EngineFaultTest, FailedQuarantineManifestLeavesEngineUnchanged) {
  auto opts = FaultOptions();
  opts.memtable_bytes = 1 << 20;
  opts.compact_fanout = 0;  // keep the two segments separate
  uint64_t bad_id = 0, good_id = 0;
  {
    auto engr = IngestEngine::Open(dir_, FaultSchema(), opts);
    ASSERT_TRUE(engr.ok());
    auto& eng = engr.value();
    ASSERT_TRUE(eng->AppendBatch(BatchRows(0, 40)).ok());
    ASSERT_TRUE(eng->Flush().ok());
    ASSERT_TRUE(eng->AppendBatch(BatchRows(1, 40)).ok());
    ASSERT_TRUE(eng->Flush().ok());
    const std::vector<SegmentInfo> before = eng->segments();
    ASSERT_EQ(before.size(), 2u);
    bad_id = before[0].id;
    good_id = before[1].id;

    char name[32];
    std::snprintf(name, sizeof(name), "seg-%06llu.0.col",
                  static_cast<unsigned long long>(bad_id));
    const std::string path = fs::JoinPath(dir_, name);
    auto bytes = fs::ReadFile(path);
    ASSERT_TRUE(bytes.ok());
    Buffer flipped = std::move(bytes).TakeValue();
    flipped.data()[flipped.size() / 2] ^= 0x01;
    ASSERT_TRUE(
        fs::WriteFileAtomic(path, flipped.span(), /*durable=*/false).ok());
    const std::vector<std::string> files = SegmentFiles(dir_, {bad_id});
    ASSERT_FALSE(files.empty());

    // The verdict is corruption, but recording it fails on every attempt.
    ASSERT_TRUE(fail::FailPoints::Set("lsm.manifest", "err").ok());
    auto rep = eng->Scrub();
    fail::FailPoints::ClearAll();
    EXPECT_FALSE(rep.ok());

    EXPECT_TRUE(eng->quarantined().empty());
    EXPECT_TRUE(SameSegments(eng->segments(), before));
    EXPECT_EQ(SegmentFiles(dir_, {bad_id}), files);
    EXPECT_FALSE(fs::FileExists(
        fs::JoinPath(fs::JoinPath(dir_, "quarantine"), name)));

    // With the fault cleared the next scrub quarantines the segment.
    auto rep2 = eng->Scrub();
    ASSERT_TRUE(rep2.ok()) << rep2.status().ToString();
    EXPECT_EQ(rep2.value().quarantined_ids, std::vector<uint64_t>{bad_id});
    ASSERT_EQ(eng->quarantined().size(), 1u);
    EXPECT_EQ(eng->quarantined()[0].id, bad_id);
    ASSERT_EQ(eng->segments().size(), 1u);
    EXPECT_EQ(eng->segments()[0].id, good_id);
    EXPECT_TRUE(SegmentFiles(dir_, {bad_id}).empty());
  }

  // A reopen agrees.
  auto engr = IngestEngine::Open(dir_, FaultSchema(), opts);
  ASSERT_TRUE(engr.ok()) << engr.status().ToString();
  ASSERT_EQ(engr.value()->quarantined().size(), 1u);
  EXPECT_EQ(engr.value()->quarantined()[0].id, bad_id);
  ASSERT_EQ(engr.value()->segments().size(), 1u);
  EXPECT_EQ(engr.value()->segments()[0].id, good_id);
  std::vector<double> kept;
  for (size_t r = 0; r < 40; ++r) kept.push_back(1000.0 + r);
  auto v = engr.value()->ReadColumn("v");
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_EQ(v.value(), kept);
}

// ---------------------------------------------------------------------------
// The exhaustive fault sweep
// ---------------------------------------------------------------------------

TEST_F(EngineFaultTest, SweepEverySiteAtEveryHit) {
  // Pass 1 (counting): run the workload clean to enumerate every
  // failpoint site it evaluates and how often.
  fail::FailPoints::EnableCounting(true);
  fail::FailPoints::ResetCounters();
  const std::vector<double> clean = RunWorkload(dir_);
  ASSERT_EQ(clean.size(), kSweepBatches * kSweepRows);
  {
    // Include recovery's own sites (manifest read, WAL replay, sweep).
    auto engr = IngestEngine::Open(dir_, FaultSchema(), FaultOptions());
    ASSERT_TRUE(engr.ok());
  }
  fail::FailPoints::EnableCounting(false);
  std::map<std::string, uint64_t> hits;
  for (const auto& site : fail::FailPoints::Sites()) {
    hits[site] = fail::FailPoints::HitCount(site);
  }
  for (const char* core :
       {"fs.append", "fs.preallocate", "fs.sync", "fs.sync_dir",
        "fs.rename", "fs.write_atomic", "fs.create", "fs.read", "fs.list",
        "wal.append", "wal.rotate", "segment.column", "segment.publish",
        "lsm.flush", "lsm.compact", "lsm.manifest"}) {
    EXPECT_TRUE(hits.count(core) && hits[core] > 0)
        << "site " << core << " was never evaluated by the workload";
  }

  // Pass 2: fire each site at every hit index (sampled when a site is
  // hit very often), alternating EIO and ENOSPC, and assert the run
  // either succeeds transparently or fails cleanly — then recovery is
  // green, lossless, and idempotent.
  size_t runs = 0;
  for (const auto& [site, n] : hits) {
    std::vector<uint64_t> targets;
    if (n <= 12) {
      for (uint64_t h = 1; h <= n; ++h) targets.push_back(h);
    } else {
      for (uint64_t h = 1; h <= 8; ++h) targets.push_back(h);
      targets.push_back(n / 2);
      targets.push_back(n);
    }
    for (uint64_t h : targets) {
      const char* action = (runs++ % 2 == 0) ? "err" : "enospc";
      const std::string spec = std::string(action) + "@" + std::to_string(h);
      SCOPED_TRACE(site + "=" + spec);
      const std::string run_dir = UniqueDir("sweep");
      RemoveTree(run_dir);
      ASSERT_TRUE(fs::CreateDir(run_dir).ok());
      ASSERT_TRUE(fail::FailPoints::Set(site, spec).ok());
      const std::vector<double> acked = RunWorkload(run_dir);
      fail::FailPoints::ClearAll();
      ASSERT_NO_FATAL_FAILURE(CheckRecovery(run_dir, acked));
      RemoveTree(run_dir);
    }
  }
  EXPECT_GT(runs, 50u);  // the sweep actually swept
}

// ---------------------------------------------------------------------------
// Interruptible retry backoff
// ---------------------------------------------------------------------------

TEST_F(EngineFaultTest, CloseInterruptsRetryBackoffInsteadOfSleepingItOut) {
  // An 8-attempt ladder at 300 ms base is 300+600+...+19200 ms of pure
  // backoff (~38 s). Close() must cancel the wait in flight, not ride
  // it out — this is the regression pin for the old uninterruptible
  // sleep_for backoff.
  auto opts = FaultOptions();
  opts.memtable_bytes = 1 << 20;
  opts.io_retry_attempts = 8;
  opts.io_retry_backoff_ms = 300;
  auto engr = IngestEngine::Open(dir_, FaultSchema(), opts);
  ASSERT_TRUE(engr.ok());
  auto& eng = engr.value();
  ASSERT_TRUE(eng->AppendBatch(BatchRows(0, 20)).ok());

  // Sticky flush failure: without interruption the flush would burn the
  // whole ladder.
  ASSERT_TRUE(fail::FailPoints::Set("lsm.flush", "err").ok());
  const auto t0 = std::chrono::steady_clock::now();
  Status flush_st;
  std::thread flusher([&] { flush_st = eng->Flush(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  Status close_st = eng->Close();
  flusher.join();
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  fail::FailPoints::ClearAll();

  EXPECT_TRUE(close_st.ok()) << close_st.ToString();
  // Seconds, not the ~38 s ladder: the backoff wait was interrupted.
  EXPECT_LT(elapsed, std::chrono::seconds(10));
  ASSERT_FALSE(flush_st.ok());
  EXPECT_NE(flush_st.message().find("interrupted"), std::string::npos)
      << flush_st.ToString();

  // The unflushed rows are WAL-durable; recovery serves them.
  engr.value().reset();
  std::vector<double> acked;
  for (size_t r = 0; r < 20; ++r) acked.push_back(r);
  CheckRecovery(dir_, acked);
}

// ---------------------------------------------------------------------------
// Sharded engine: per-shard fault isolation
// ---------------------------------------------------------------------------

/// Recursive tree removal (shard stores nest shard-<k>/quarantine/).
void RemoveTreeRec(const std::string& dir) {
  auto names = fs::ListDir(dir);
  if (names.ok()) {
    for (const auto& n : names.value()) {
      const std::string p = fs::JoinPath(dir, n);
      if (!fs::RemoveFile(p).ok()) RemoveTreeRec(p);
    }
  }
  ::rmdir(dir.c_str());
}

std::vector<ColumnDef> ShardFaultSchema() {
  ColumnDef t, v;
  t.name = "t";
  v.name = "v";
  return {t, v};
}

shard::ShardOptions ShardFaultOptions() {
  shard::ShardOptions o;
  o.num_shards = 4;
  o.shard_quota_bytes = 1 << 20;  // admission out of the way
  o.engine = FaultOptions();
  o.engine.memtable_bytes = 2 << 10;  // flushes mid-ingest
  o.engine.io_retry_attempts = 1;     // a one-shot @1 is not absorbed
  o.engine.compact_fanout = 0;
  return o;
}

constexpr size_t kShardSeries = 8;
constexpr size_t kShardBatches = 6;
constexpr size_t kShardRows = 40;

std::vector<double> ShardBatch(uint64_t series, uint64_t start, size_t n) {
  std::vector<double> rows;
  rows.reserve(2 * n);
  for (size_t i = 0; i < n; ++i) {
    rows.push_back(static_cast<double>(start + i));
    rows.push_back(static_cast<double>(series) * 1e6 +
                   static_cast<double>(start + i));
  }
  return rows;
}

/// Sharded ingest workload tolerant of injected faults. Returns, per
/// series, how many rows were ACKNOWLEDGED (acks are prefixes: series
/// rows are appended in order and a failed batch is not retried).
std::vector<uint64_t> RunShardWorkload(const std::string& dir) {
  std::vector<uint64_t> acked(kShardSeries, 0);
  auto opened =
      shard::ShardedIngestEngine::Open(dir, ShardFaultSchema(),
                                       ShardFaultOptions());
  if (!opened.ok()) return acked;  // a faulted Open is a clean typed error
  auto& eng = *opened.value();
  for (size_t b = 0; b < kShardBatches; ++b) {
    for (uint64_t s = 0; s < kShardSeries; ++s) {
      if (eng.AppendBatch(s, ShardBatch(s, acked[s], kShardRows)).ok()) {
        acked[s] += kShardRows;
      }
    }
  }
  eng.Flush();  // may fail on a degraded shard; siblings still flush
  eng.Close();
  return acked;
}

/// Post-fault invariants (failpoints cleared): reopen green, every
/// acked row back exactly once per series in order, idempotent.
void CheckShardRecovery(const std::string& dir,
                        const std::vector<uint64_t>& acked) {
  for (int round = 0; round < 2; ++round) {
    SCOPED_TRACE("recovery round " + std::to_string(round));
    shard::ShardOptions opt = ShardFaultOptions();
    opt.num_shards = 0;  // adopt (Open may have failed pre-SHARDS too)
    auto opened =
        shard::ShardedIngestEngine::Open(dir, ShardFaultSchema(), opt);
    if (!opened.ok()) {
      // Only legitimate when the faulted run never created the store.
      ASSERT_EQ(std::count(acked.begin(), acked.end(), 0u),
                static_cast<long>(acked.size()))
          << opened.status().ToString();
      return;
    }
    auto& eng = *opened.value();
    auto shards = eng.SnapshotReadShards("v");
    ASSERT_TRUE(shards.ok()) << shards.status().ToString();
    for (uint64_t s = 0; s < kShardSeries; ++s) {
      std::vector<double> seq;
      for (double v : shards.value()[eng.ShardOf(s)]) {
        if (static_cast<uint64_t>(v / 1e6) == s) {
          seq.push_back(v - static_cast<double>(s) * 1e6);
        }
      }
      ASSERT_EQ(seq.size(), acked[s]) << "series " << s;
      for (size_t i = 0; i < seq.size(); ++i) {
        ASSERT_EQ(seq[i], static_cast<double>(i))
            << "series " << s << " row " << i;
      }
    }
    eng.Close();
  }
}

TEST_F(EngineFaultTest, ShardDegradationIsolatesSiblings) {
  auto opened = shard::ShardedIngestEngine::Open(dir_, ShardFaultSchema(),
                                                 ShardFaultOptions());
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  auto& eng = *opened.value();

  // The FIRST shard to reach its memtable watermark hits the one-shot
  // flush fault and (attempts=1) degrades to sticky read-only.
  ASSERT_TRUE(fail::FailPoints::Set("lsm.flush", "err@1").ok());
  std::vector<uint64_t> acked(kShardSeries, 0);
  for (size_t b = 0; b < kShardBatches; ++b) {
    for (uint64_t s = 0; s < kShardSeries; ++s) {
      if (eng.AppendBatch(s, ShardBatch(s, acked[s], kShardRows)).ok()) {
        acked[s] += kShardRows;
      }
    }
  }
  fail::FailPoints::ClearAll();

  // Exactly one shard degraded, with the injected root cause in the
  // aggregated health report.
  const shard::HealthReport h = eng.Health();
  ASSERT_EQ(h.degraded_shards, 1u);
  EXPECT_FALSE(h.all_healthy());
  size_t bad = h.shards.size();
  for (const auto& sh : h.shards) {
    if (sh.read_only) {
      bad = sh.shard;
      EXPECT_EQ(sh.error.code(), StatusCode::kIoError);
      EXPECT_NE(sh.error.message().find("injected fault"),
                std::string::npos);
    }
  }
  ASSERT_LT(bad, h.shards.size());

  // Sibling shards keep accepting writes; the degraded one fails fast
  // with its sticky root cause, never a timeout.
  for (uint64_t s = 0; s < kShardSeries; ++s) {
    const Status st = eng.AppendBatch(s, ShardBatch(s, acked[s], 1));
    if (eng.ShardOf(s) == bad) {
      ASSERT_FALSE(st.ok());
      EXPECT_EQ(st.code(), StatusCode::kIoError);
      EXPECT_NE(st.message().find("read-only"), std::string::npos);
    } else {
      ASSERT_TRUE(st.ok()) << "series " << s << ": " << st.ToString();
      acked[s] += 1;
    }
  }

  // Reads still serve every acknowledged row — including the degraded
  // shard's (its unflushed memtable is retained and WAL-durable).
  auto shards = eng.SnapshotReadShards("v");
  ASSERT_TRUE(shards.ok());
  for (uint64_t s = 0; s < kShardSeries; ++s) {
    size_t found = 0;
    for (double v : shards.value()[eng.ShardOf(s)]) {
      if (static_cast<uint64_t>(v / 1e6) == s) ++found;
    }
    EXPECT_EQ(found, acked[s]) << "series " << s;
  }

  // Reopen with the fault gone: every acked row, exactly once, and the
  // formerly-degraded shard is writable again.
  ASSERT_TRUE(eng.Close().ok());
  opened.value().reset();
  ASSERT_NO_FATAL_FAILURE(CheckShardRecovery(dir_, acked));
  shard::ShardOptions opt = ShardFaultOptions();
  opt.num_shards = 0;
  auto reopened =
      shard::ShardedIngestEngine::Open(dir_, ShardFaultSchema(), opt);
  ASSERT_TRUE(reopened.ok());
  EXPECT_TRUE(reopened.value()->Health().all_healthy());
  for (uint64_t s = 0; s < kShardSeries; ++s) {
    ASSERT_TRUE(
        reopened.value()->AppendBatch(s, ShardBatch(s, acked[s], 1)).ok());
  }
}

TEST_F(EngineFaultTest, ShardChaosSweepRecoversAckedRowsExactlyOnce) {
  // EIO/ENOSPC into one shard mid-ingest (the one-shot @1 lands on the
  // first shard to exercise the site), across every flush-path site:
  // whatever degrades, siblings' and the victim's acked rows all
  // recover exactly once, idempotently.
  const std::vector<std::string> sites = {
      "lsm.flush", "segment.column", "segment.publish",
      "lsm.manifest", "fs.sync", "wal.rotate"};
  size_t runs = 0;
  for (const auto& site : sites) {
    for (const char* action : {"err", "enospc"}) {
      const std::string spec = std::string(action) + "@1";
      SCOPED_TRACE(site + "=" + spec);
      const std::string run_dir = UniqueDir("shard_sweep");
      RemoveTreeRec(run_dir);
      ASSERT_TRUE(fail::FailPoints::Set(site, spec).ok());
      const std::vector<uint64_t> acked = RunShardWorkload(run_dir);
      fail::FailPoints::ClearAll();
      ASSERT_NO_FATAL_FAILURE(CheckShardRecovery(run_dir, acked));
      RemoveTreeRec(run_dir);
      ++runs;
    }
  }
  EXPECT_EQ(runs, sites.size() * 2);
}

TEST_F(EngineFaultTest, ShardFailpointSitesAreTypedAndAttributed) {
  auto opened = shard::ShardedIngestEngine::Open(dir_, ShardFaultSchema(),
                                                 ShardFaultOptions());
  ASSERT_TRUE(opened.ok());
  auto& eng = *opened.value();

  ASSERT_TRUE(fail::FailPoints::Set("shard.route", "err@1").ok());
  Status st = eng.AppendBatch(0, ShardBatch(0, 0, 1));
  EXPECT_EQ(st.code(), StatusCode::kIoError);
  EXPECT_NE(st.message().find("shard.route"), std::string::npos);

  ASSERT_TRUE(fail::FailPoints::Set("shard.admit", "err@1").ok());
  st = eng.AppendBatch(0, ShardBatch(0, 0, 1));
  EXPECT_EQ(st.code(), StatusCode::kOverloaded);
  EXPECT_NE(st.message().find("shard.admit"), std::string::npos);
  fail::FailPoints::ClearAll();

  // Both injections rejected cleanly: the store is intact and writable.
  EXPECT_TRUE(eng.AppendBatch(0, ShardBatch(0, 0, 1)).ok());
  EXPECT_TRUE(eng.Health().all_healthy());
}

TEST_F(EngineFaultTest, ProbabilisticChaosNeverLosesAckedData) {
  uint64_t seed = 42;
  if (const char* env = std::getenv("FCBENCH_FAULT_SEED")) {
    seed = std::strtoull(env, nullptr, 10);
  }
  const std::vector<std::string> sites = {
      "fs.append", "fs.sync", "fs.sync_dir", "fs.rename", "fs.write_atomic",
      "fs.create", "fs.read", "fs.list", "fs.close", "wal.append",
      "wal.rotate", "segment.column", "segment.publish", "lsm.flush",
      "lsm.compact", "lsm.manifest", "fs.preallocate"};
  for (int trial = 0; trial < 4; ++trial) {
    SCOPED_TRACE("seed " + std::to_string(seed) + " trial " +
                 std::to_string(trial));
    const std::string run_dir = UniqueDir("chaos" + std::to_string(trial));
    RemoveTree(run_dir);
    ASSERT_TRUE(fs::CreateDir(run_dir).ok());
    for (size_t i = 0; i < sites.size(); ++i) {
      const uint64_t site_seed = seed * 1000 + uint64_t(trial) * 37 + i;
      ASSERT_TRUE(fail::FailPoints::Set(
                      sites[i], "err@p0.03:s" + std::to_string(site_seed))
                      .ok());
    }
    const std::vector<double> acked = RunWorkload(run_dir);
    fail::FailPoints::ClearAll();
    ASSERT_NO_FATAL_FAILURE(CheckRecovery(run_dir, acked));
    RemoveTree(run_dir);
  }
}

TEST_F(EngineFaultTest, InjectedFlushStallTripsWatchdogExactlyOnce) {
  // A sticky lsm.flush fault plus a long retry backoff turns the flush
  // into a stall the watchdog must catch: with a 5 ms budget and a
  // ~60 ms retry ladder (2 attempts x 30 ms backoff) the deadline
  // passes mid-flush. The stall must fire exactly once — the flush,
  // compaction and scrub watches all share the dog, and a retry ladder
  // must not refire per attempt — and leave a `stall` event in the
  // trace collector attributed to this engine's dir.
  auto opts = FaultOptions();
  opts.memtable_bytes = 1 << 20;
  opts.io_retry_backoff_ms = 30;
  opts.watchdog_budget_ms = 5;
  auto engr = IngestEngine::Open(dir_, FaultSchema(), opts);
  ASSERT_TRUE(engr.ok());
  auto& eng = engr.value();
  ASSERT_TRUE(eng->AppendBatch(BatchRows(0, 20)).ok());

  const uint64_t stalls_before = obs::Watchdog::Global().stalls_fired();
  const uint64_t t0 = obs::MonotonicNanos();
  ASSERT_TRUE(fail::FailPoints::Set("lsm.flush", "err").ok());
  Status st = eng->Flush();
  EXPECT_FALSE(st.ok());
  fail::FailPoints::ClearAll();

  EXPECT_EQ(obs::Watchdog::Global().stalls_fired(), stalls_before + 1);
  bool saw_stall = false;
  for (const obs::SpanRecord& e : obs::TraceCollector::Global().Snapshot()) {
    if (e.span_id != 0 || e.start_nanos < t0) continue;  // spans, old events
    if (std::string(e.name) != "stall") continue;
    saw_stall = true;
    EXPECT_EQ(std::string(e.tag), dir_.substr(0, sizeof(e.tag) - 1));
    EXPECT_GE(e.a, 5u) << "elapsed_ms at firing";
    EXPECT_EQ(e.b, 5u) << "budget_ms";
  }
  EXPECT_TRUE(saw_stall) << "no stall event in the trace collector";

  // The watch disarmed with the flush: quiet from here on.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(obs::Watchdog::Global().stalls_fired(), stalls_before + 1);
}

}  // namespace
}  // namespace fcbench::db::lsm

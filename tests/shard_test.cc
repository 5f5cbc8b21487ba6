// Tests for the sharded multi-tenant ingest engine (src/db/shard/):
// hash routing and its pinned shard count, admission control (fail-fast
// kOverloaded, deadline waits, oversized-batch rejection, shutdown
// wakeups), snapshot-consistent cross-shard reads under concurrent
// ingest and background flush/compaction, error attribution of the
// parallel shard read, coordinated flush, aggregated health/scrub, per-shard
// activity totals against the process-wide registry, and recovery
// accounting across reopen.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <future>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "db/column_store.h"
#include "db/shard/sharded_engine.h"
#include "obs/metrics.h"
#include "util/bitio.h"
#include "util/failpoint.h"
#include "util/fs.h"
#include "util/thread_pool.h"

namespace fcbench::db::shard {
namespace {

using lsm::ColumnDef;

std::string UniqueDir(const std::string& tag) {
  return "/tmp/fcbench_shard_" + std::to_string(::getpid()) + "_" + tag;
}

void RemoveTree(const std::string& dir) {
  auto names = fs::ListDir(dir);
  if (names.ok()) {
    for (const auto& n : names.value()) {
      const std::string path = fs::JoinPath(dir, n);
      if (!fs::RemoveFile(path).ok()) RemoveTree(path);  // a subdirectory
    }
  }
  ::rmdir(dir.c_str());
}

std::vector<ColumnDef> TestSchema() {
  return {{"t", DType::kFloat64, 0}, {"v", DType::kFloat64, 0}};
}

/// Fast deterministic defaults: no fsync, inline flushes, no compaction.
ShardOptions TestOptions(size_t shards, size_t quota = 0, size_t total = 0) {
  ShardOptions o;
  o.num_shards = shards;
  o.shard_quota_bytes = quota;
  o.total_budget_bytes = total;
  o.engine.sync_on_commit = false;
  o.engine.background_flush = false;
  o.engine.io_retry_backoff_ms = 0;
  o.engine.compact_fanout = 0;
  return o;
}

/// `n` rows for `series`: t = start+i, v = series * 1e6 + (start + i).
/// The v encoding makes every row attributable to its series, so
/// snapshot and recovery checks can verify per-series prefixes.
std::vector<double> Batch(uint64_t series, uint64_t start, size_t n) {
  std::vector<double> rows;
  rows.reserve(2 * n);
  for (size_t i = 0; i < n; ++i) {
    rows.push_back(static_cast<double>(start + i));
    rows.push_back(static_cast<double>(series) * 1e6 +
                   static_cast<double>(start + i));
  }
  return rows;
}

class ShardTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = UniqueDir(
        ::testing::UnitTest::GetInstance()->current_test_info()->name());
    RemoveTree(dir_);
  }
  void TearDown() override { RemoveTree(dir_); }

  std::string dir_;
};

// ---------------------------------------------------------------------------
// Routing and the pinned shard count
// ---------------------------------------------------------------------------

TEST_F(ShardTest, RoutingIsDeterministicAndCoversAllShards) {
  auto eng = ShardedIngestEngine::Open(dir_, TestSchema(), TestOptions(4));
  ASSERT_TRUE(eng.ok()) << eng.status().ToString();
  std::set<size_t> hit;
  for (uint64_t key = 0; key < 1000; ++key) {
    const size_t k = eng.value()->ShardOf(key);
    ASSERT_LT(k, 4u);
    EXPECT_EQ(k, eng.value()->ShardOf(key));  // stable
    hit.insert(k);
  }
  // splitmix64 spreads even sequential keys across every shard.
  EXPECT_EQ(hit.size(), 4u);
}

TEST_F(ShardTest, ReopenWithDifferentShardCountIsRefused) {
  {
    auto eng = ShardedIngestEngine::Open(dir_, TestSchema(), TestOptions(4));
    ASSERT_TRUE(eng.ok());
    ASSERT_TRUE(eng.value()->Close().ok());
  }
  auto wrong = ShardedIngestEngine::Open(dir_, TestSchema(), TestOptions(2));
  ASSERT_FALSE(wrong.ok());
  EXPECT_EQ(wrong.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(wrong.status().message().find("re-routing"), std::string::npos);

  // num_shards = 0 adopts the stored count instead.
  auto adopt = ShardedIngestEngine::Open(dir_, TestSchema(), TestOptions(0));
  ASSERT_TRUE(adopt.ok()) << adopt.status().ToString();
  EXPECT_EQ(adopt.value()->num_shards(), 4u);
}

TEST_F(ShardTest, NewStoreRequiresNonZeroShardCount) {
  auto eng = ShardedIngestEngine::Open(dir_, TestSchema(), TestOptions(0));
  ASSERT_FALSE(eng.ok());
  EXPECT_EQ(eng.status().code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Append / read-back / recovery
// ---------------------------------------------------------------------------

TEST_F(ShardTest, AppendReadBackAcrossShards) {
  auto opened = ShardedIngestEngine::Open(dir_, TestSchema(), TestOptions(4));
  ASSERT_TRUE(opened.ok());
  auto& eng = *opened.value();

  const size_t kSeries = 32, kRows = 8;
  for (uint64_t s = 0; s < kSeries; ++s) {
    ASSERT_TRUE(eng.AppendBatch(s, Batch(s, 0, kRows)).ok());
  }
  EXPECT_EQ(eng.rows(), kSeries * kRows);

  auto all = eng.ReadColumn("v");
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  EXPECT_EQ(all.value().size(), kSeries * kRows);

  // Every row of every series landed on exactly the shard its key
  // routes to.
  auto shards = eng.SnapshotReadShards("v");
  ASSERT_TRUE(shards.ok());
  for (uint64_t s = 0; s < kSeries; ++s) {
    const size_t k = eng.ShardOf(s);
    size_t found = 0;
    for (double v : shards.value()[k]) {
      if (static_cast<uint64_t>(v / 1e6) == s) ++found;
    }
    EXPECT_EQ(found, kRows) << "series " << s << " on shard " << k;
  }
}

TEST_F(ShardTest, RecoveryPreservesRowsAndIsIdempotent) {
  const size_t kSeries = 16, kRows = 50;
  {
    auto eng = ShardedIngestEngine::Open(dir_, TestSchema(), TestOptions(4));
    ASSERT_TRUE(eng.ok());
    for (uint64_t s = 0; s < kSeries; ++s) {
      ASSERT_TRUE(eng.value()->AppendBatch(s, Batch(s, 0, kRows)).ok());
    }
    // No flush: recovery must replay every shard's WAL.
    ASSERT_TRUE(eng.value()->Close().ok());
  }
  for (int round = 0; round < 2; ++round) {
    auto eng = ShardedIngestEngine::Open(dir_, TestSchema(), TestOptions(0));
    ASSERT_TRUE(eng.ok()) << eng.status().ToString();
    EXPECT_EQ(eng.value()->rows(), kSeries * kRows) << "round " << round;
    auto v = eng.value()->ReadColumn("v");
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(v.value().size(), kSeries * kRows);
    ASSERT_TRUE(eng.value()->Close().ok());
  }
}

TEST_F(ShardTest, ReopenChargesRecoveredBufferedBytesToBudget) {
  {
    auto eng = ShardedIngestEngine::Open(dir_, TestSchema(), TestOptions(2));
    ASSERT_TRUE(eng.ok());
    ASSERT_TRUE(eng.value()->AppendBatch(7, Batch(7, 0, 100)).ok());
    ASSERT_TRUE(eng.value()->Close().ok());
  }
  auto eng = ShardedIngestEngine::Open(dir_, TestSchema(), TestOptions(2));
  ASSERT_TRUE(eng.ok());
  // WAL replay refilled the memtable; admission accounting must see it.
  const uint64_t buffered = 100 * 2 * sizeof(double);
  EXPECT_EQ(eng.value()->budget().used(), buffered);
  EXPECT_EQ(eng.value()->budget().shard_used(eng.value()->ShardOf(7)),
            buffered);
  // Flushing drains the recovered charge back to zero.
  ASSERT_TRUE(eng.value()->Flush().ok());
  EXPECT_EQ(eng.value()->budget().used(), 0u);
}

// ---------------------------------------------------------------------------
// Admission control
// ---------------------------------------------------------------------------

TEST_F(ShardTest, OverBudgetAppendFailsFastWithOverloaded) {
  // Quota: 64 rows of 16B. Batches of 24 rows: two fit, the third not.
  auto opened =
      ShardedIngestEngine::Open(dir_, TestSchema(), TestOptions(2, 1024));
  ASSERT_TRUE(opened.ok());
  auto& eng = *opened.value();
  ASSERT_TRUE(eng.AppendBatch(1, Batch(1, 0, 24)).ok());
  ASSERT_TRUE(eng.AppendBatch(1, Batch(1, 24, 24)).ok());
  const Status st = eng.AppendBatch(1, Batch(1, 48, 24));
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOverloaded);
  EXPECT_NE(st.message().find("admission"), std::string::npos);

  // Overload is transient by design: flushing returns the bytes.
  ASSERT_TRUE(eng.Flush().ok());
  EXPECT_TRUE(eng.AppendBatch(1, Batch(1, 48, 24)).ok());
  // Rows were never lost across the overload episode.
  EXPECT_EQ(eng.rows(), 72u);
}

TEST_F(ShardTest, DeadlineWaiterAdmittedWhenBudgetDrains) {
  auto opened =
      ShardedIngestEngine::Open(dir_, TestSchema(), TestOptions(2, 1024));
  ASSERT_TRUE(opened.ok());
  auto& eng = *opened.value();
  ASSERT_TRUE(eng.AppendBatch(1, Batch(1, 0, 60)).ok());  // 960B of 1024

  std::thread flusher([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    ASSERT_TRUE(eng.Flush().ok());
  });
  // 60 more rows do not fit now; they must be admitted once the flush
  // releases the first batch — well before the 5 s deadline.
  const auto t0 = std::chrono::steady_clock::now();
  const Status st = eng.AppendBatchUntil(
      1, Batch(1, 60, 60), t0 + std::chrono::seconds(5));
  const auto waited = std::chrono::steady_clock::now() - t0;
  flusher.join();
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_LT(waited, std::chrono::seconds(4));
  EXPECT_EQ(eng.rows(), 120u);
}

TEST_F(ShardTest, DeadlineExceededReturnsOverloaded) {
  auto opened =
      ShardedIngestEngine::Open(dir_, TestSchema(), TestOptions(2, 1024));
  ASSERT_TRUE(opened.ok());
  auto& eng = *opened.value();
  ASSERT_TRUE(eng.AppendBatch(1, Batch(1, 0, 60)).ok());
  // Nothing will drain the budget: the wait must end at the deadline.
  const Status st = eng.AppendBatchUntil(
      1, Batch(1, 60, 60),
      std::chrono::steady_clock::now() + std::chrono::milliseconds(50));
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOverloaded);
  EXPECT_NE(st.message().find("deadline exceeded"), std::string::npos);
}

TEST_F(ShardTest, OversizedBatchIsRejectedWithoutWaitingOutDeadline) {
  auto opened =
      ShardedIngestEngine::Open(dir_, TestSchema(), TestOptions(2, 1024));
  ASSERT_TRUE(opened.ok());
  // 128 rows = 2048B can never fit a 1024B quota; a 5 s deadline must
  // not be slept out for a request that cannot ever be admitted.
  const auto t0 = std::chrono::steady_clock::now();
  const Status st = opened.value()->AppendBatchUntil(
      1, Batch(1, 0, 128), t0 + std::chrono::seconds(5));
  const auto waited = std::chrono::steady_clock::now() - t0;
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOverloaded);
  EXPECT_NE(st.message().find("over hard cap"), std::string::npos);
  EXPECT_LT(waited, std::chrono::seconds(1));
}

TEST_F(ShardTest, CloseWakesDeadlineWaitersWithOverloaded) {
  auto opened =
      ShardedIngestEngine::Open(dir_, TestSchema(), TestOptions(2, 1024));
  ASSERT_TRUE(opened.ok());
  auto& eng = *opened.value();
  ASSERT_TRUE(eng.AppendBatch(1, Batch(1, 0, 60)).ok());

  std::atomic<bool> woke{false};
  Status st;
  std::thread waiter([&] {
    st = eng.AppendBatchUntil(
        1, Batch(1, 60, 60),
        std::chrono::steady_clock::now() + std::chrono::seconds(30));
    woke = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(woke.load());
  const auto t0 = std::chrono::steady_clock::now();
  ASSERT_TRUE(eng.Close().ok());
  waiter.join();
  // Close unblocked the waiter immediately — not after 30 s.
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(5));
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOverloaded);
  EXPECT_NE(st.message().find("shutting down"), std::string::npos);
}

TEST_F(ShardTest, PerShardQuotaIsolatesTenants) {
  // Series routed to DIFFERENT shards must not contend: one tenant
  // saturating its shard's quota leaves the sibling's quota untouched
  // (the default total budget is the sum of the quotas).
  auto opened =
      ShardedIngestEngine::Open(dir_, TestSchema(), TestOptions(4, 1024));
  ASSERT_TRUE(opened.ok());
  auto& eng = *opened.value();
  // Find two keys on different shards.
  uint64_t a = 0, b = 1;
  while (eng.ShardOf(b) == eng.ShardOf(a)) ++b;
  ASSERT_TRUE(eng.AppendBatch(a, Batch(a, 0, 60)).ok());
  ASSERT_EQ(eng.AppendBatch(a, Batch(a, 60, 60)).code(),
            StatusCode::kOverloaded);
  // Shard of `b` is unaffected by `a`'s overload.
  EXPECT_TRUE(eng.AppendBatch(b, Batch(b, 0, 60)).ok());
}

// ---------------------------------------------------------------------------
// Snapshot-consistent cross-shard reads
// ---------------------------------------------------------------------------

TEST_F(ShardTest, SnapshotNeverTearsBatchesDuringConcurrentIngest) {
  ShardOptions opt = TestOptions(4);
  opt.engine.memtable_bytes = 4 << 10;  // frequent inline flushes
  auto opened = ShardedIngestEngine::Open(dir_, TestSchema(), opt);
  ASSERT_TRUE(opened.ok());
  auto& eng = *opened.value();

  constexpr size_t kWriters = 3;
  constexpr size_t kBatch = 7;
  constexpr size_t kBatchesPerWriter = 60;
  std::vector<std::thread> writers;
  for (size_t w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      // Each writer owns one series; rows are consecutive within it.
      for (size_t i = 0; i < kBatchesPerWriter; ++i) {
        ASSERT_TRUE(
            eng.AppendBatch(w, Batch(w, i * kBatch, kBatch)).ok());
      }
    });
  }

  // Snapshot continuously while writers run: every snapshot must hold a
  // whole number of batches per series (a torn batch would leave a
  // remainder), and each series' rows must be the exact prefix
  // 0..n-1 of its value sequence.
  size_t snapshots = 0;
  while (snapshots < 50) {
    auto shards = eng.SnapshotReadShards("v");
    ASSERT_TRUE(shards.ok()) << shards.status().ToString();
    for (uint64_t s = 0; s < kWriters; ++s) {
      std::vector<double> seq;
      for (double v : shards.value()[eng.ShardOf(s)]) {
        if (static_cast<uint64_t>(v / 1e6) == s) {
          seq.push_back(v - static_cast<double>(s) * 1e6);
        }
      }
      ASSERT_EQ(seq.size() % kBatch, 0u)
          << "torn batch: series " << s << " has " << seq.size() << " rows";
      for (size_t i = 0; i < seq.size(); ++i) {
        ASSERT_EQ(seq[i], static_cast<double>(i)) << "series " << s;
      }
    }
    ++snapshots;
  }
  for (auto& t : writers) t.join();
  EXPECT_EQ(eng.rows(), kWriters * kBatch * kBatchesPerWriter);
}

TEST_F(ShardTest, ParallelSnapshotMatchesSerialReadsUnderBackgroundWork) {
  // Shards are read concurrently on the shared pool while two writers
  // keep appending and every shard flushes and compacts in the
  // background. Each shard's snapshot must still be a batch-aligned cut:
  // a whole number of batches per series, and exactly the prefix of
  // what a later serial ReadColumn of that shard returns.
  ShardOptions opt = TestOptions(4);
  opt.engine.background_flush = true;
  opt.engine.compact_fanout = 2;
  opt.engine.memtable_bytes = 4 << 10;
  opt.engine.flush_compressor = "bitshuffle_lz4";
  auto opened = ShardedIngestEngine::Open(dir_, TestSchema(), opt);
  ASSERT_TRUE(opened.ok());
  auto& eng = *opened.value();

  constexpr size_t kWriters = 2;
  constexpr size_t kSeriesPerWriter = 8;
  constexpr size_t kBatch = 5;
  constexpr size_t kRounds = 40;
  std::atomic<bool> write_failed{false};
  std::vector<std::thread> writers;
  for (size_t w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      // Writer w owns series w, w + kWriters, ...: 16 series in all,
      // which covers every shard.
      for (size_t i = 0; i < kRounds; ++i) {
        for (size_t j = 0; j < kSeriesPerWriter; ++j) {
          const uint64_t series = w + j * kWriters;
          const Status st = eng.AppendBatchUntil(
              series, Batch(series, i * kBatch, kBatch),
              std::chrono::steady_clock::now() + std::chrono::seconds(30));
          if (!st.ok()) write_failed = true;
        }
      }
    });
  }

  constexpr uint64_t kSeries = kWriters * kSeriesPerWriter;
  auto check_snapshot = [&] {
    auto snap = eng.SnapshotReadShards("v");
    ASSERT_TRUE(snap.ok()) << snap.status().ToString();
    ASSERT_EQ(snap.value().size(), eng.num_shards());
    for (uint64_t s = 0; s < kSeries; ++s) {
      std::vector<double> seq;
      for (double v : snap.value()[eng.ShardOf(s)]) {
        if (static_cast<uint64_t>(v / 1e6) == s) {
          seq.push_back(v - static_cast<double>(s) * 1e6);
        }
      }
      ASSERT_EQ(seq.size() % kBatch, 0u)
          << "torn batch: series " << s << " has " << seq.size() << " rows";
      for (size_t i = 0; i < seq.size(); ++i) {
        ASSERT_EQ(seq[i], static_cast<double>(i)) << "series " << s;
      }
    }
    for (size_t k = 0; k < eng.num_shards(); ++k) {
      auto serial = eng.shard(k)->ReadColumn("v");
      ASSERT_TRUE(serial.ok()) << serial.status().ToString();
      const auto& got = snap.value()[k];
      ASSERT_LE(got.size(), serial.value().size()) << "shard " << k;
      ASSERT_TRUE(std::equal(got.begin(), got.end(), serial.value().begin()))
          << "shard " << k << " snapshot is not a prefix of its serial read";
    }
  };
  for (size_t i = 0; i < 30; ++i) check_snapshot();
  for (auto& t : writers) t.join();
  EXPECT_FALSE(write_failed.load());
  ASSERT_TRUE(eng.Flush().ok());
  check_snapshot();

  auto all = eng.SnapshotReadShards("v");
  ASSERT_TRUE(all.ok());
  size_t total = 0;
  for (size_t k = 0; k < eng.num_shards(); ++k) {
    total += all.value()[k].size();
    auto serial = eng.shard(k)->ReadColumn("v");
    ASSERT_TRUE(serial.ok());
    EXPECT_EQ(all.value()[k], serial.value()) << "shard " << k;
  }
  EXPECT_EQ(total, kSeries * kRounds * kBatch);
}

TEST_F(ShardTest, SnapshotReadReportsLowestFailingShard) {
  // Shards 1..3 have published segments, shard 0 only memtable rows. A
  // sticky read error then fails every shard that touches disk, in
  // whatever order the pool runs them; the reported error must be the
  // lowest failing shard's, annotated with its index.
  auto opened = ShardedIngestEngine::Open(dir_, TestSchema(), TestOptions(4));
  ASSERT_TRUE(opened.ok());
  auto& eng = *opened.value();
  std::vector<uint64_t> key_of(eng.num_shards(), 0);
  std::vector<bool> seen(eng.num_shards(), false);
  for (uint64_t key = 0, found = 0; found < eng.num_shards(); ++key) {
    const size_t k = eng.ShardOf(key);
    if (!seen[k]) {
      seen[k] = true;
      key_of[k] = key;
      ++found;
    }
  }
  for (size_t k = 1; k < eng.num_shards(); ++k) {
    ASSERT_TRUE(eng.AppendBatch(key_of[k], Batch(key_of[k], 0, 10)).ok());
  }
  ASSERT_TRUE(eng.Flush().ok());
  ASSERT_TRUE(eng.AppendBatch(key_of[0], Batch(key_of[0], 0, 10)).ok());

  ASSERT_TRUE(fail::FailPoints::Set("fs.read", "err").ok());
  auto snap = eng.SnapshotReadShards("v");
  fail::FailPoints::ClearAll();
  ASSERT_FALSE(snap.ok());
  EXPECT_EQ(snap.status().code(), StatusCode::kIoError);
  EXPECT_EQ(snap.status().message().rfind("shard 1: ", 0), 0u)
      << snap.status().ToString();

  auto healed = eng.SnapshotReadShards("v");
  ASSERT_TRUE(healed.ok()) << healed.status().ToString();
  for (size_t k = 0; k < eng.num_shards(); ++k) {
    EXPECT_EQ(healed.value()[k].size(), 10u) << "shard " << k;
  }
}

// ---------------------------------------------------------------------------
// Page-task reads: one pool task per stored page, across every segment of
// every shard
// ---------------------------------------------------------------------------

/// t and v as in Batch(), plus an f32 column f = (start + i) / 3, which
/// rounds on its way into a segment and widens back per page.
std::vector<ColumnDef> PageSchema() {
  return {{"t", DType::kFloat64, 0},
          {"v", DType::kFloat64, 0},
          {"f", DType::kFloat32, 0}};
}

double FValue(uint64_t row) {
  return static_cast<double>(static_cast<float>(static_cast<double>(row) / 3));
}

std::vector<double> PageBatch(uint64_t series, uint64_t start, size_t n) {
  std::vector<double> rows;
  for (size_t i = 0; i < n; ++i) {
    rows.push_back(static_cast<double>(start + i));
    rows.push_back(static_cast<double>(series) * 1e6 +
                   static_cast<double>(start + i));
    rows.push_back(static_cast<double>(start + i) / 3);
  }
  return rows;
}

/// 4 KiB pages: 512 f64 or 1024 f32 rows, so segments span several
/// pages and their row counts are not page multiples.
ShardOptions PageOptions() {
  ShardOptions o = TestOptions(4);
  o.engine.page_size = 4096;
  o.engine.background_flush = true;
  o.engine.flush_compressor = "bitshuffle_lz4";
  o.engine.compact_compressor = "chimp128";
  return o;
}

std::string SegmentPrefix(const lsm::IngestEngine& shard, uint64_t id) {
  char name[32];
  std::snprintf(name, sizeof(name), "seg-%06llu",
                static_cast<unsigned long long>(id));
  return fs::JoinPath(shard.dir(), name);
}

/// `column` of one shard read from outside the engine: every segment
/// through ColumnStore::ReadRows, in order.
std::vector<double> SegmentRows(const lsm::IngestEngine& shard,
                                const std::string& column) {
  std::vector<double> out;
  for (const lsm::SegmentInfo& s : shard.segments()) {
    auto rows =
        ColumnStore::ReadRows(SegmentPrefix(shard, s.id), column, 0, s.rows);
    EXPECT_TRUE(rows.ok()) << rows.status().ToString();
    if (rows.ok()) {
      out.insert(out.end(), rows.value().begin(), rows.value().end());
    }
  }
  return out;
}

/// The lowest series key that routes to each shard.
std::vector<uint64_t> KeyPerShard(const ShardedIngestEngine& eng) {
  std::vector<uint64_t> key_of(eng.num_shards(), 0);
  std::vector<bool> seen(eng.num_shards(), false);
  for (uint64_t key = 0, found = 0; found < eng.num_shards(); ++key) {
    const size_t k = eng.ShardOf(key);
    if (!seen[k]) {
      seen[k] = true;
      key_of[k] = key;
      ++found;
    }
  }
  return key_of;
}

TEST_F(ShardTest, PageTaskSnapshotMatchesPerSegmentReadsAndMemtables) {
  // Every shard holds flushed segments of 1300, 777 and 1031 rows (shard
  // 0's first two compacted into one), then live memtable rows; shard 1
  // also has an immutable memtable whose flush waits out a retry
  // backoff. Each shard of SnapshotReadShards, run from the test thread
  // and from inside a pool task, must equal the shard's per-segment
  // ColumnStore::ReadRows followed by its memtable rows.
  ShardOptions opt = PageOptions();
  opt.engine.io_retry_backoff_ms = 60000;
  auto opened = ShardedIngestEngine::Open(dir_, PageSchema(), opt);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  auto& eng = *opened.value();
  const std::vector<uint64_t> key_of = KeyPerShard(eng);

  uint64_t rows = 0;
  for (uint64_t n : {1300, 777, 1031}) {
    for (size_t k = 0; k < eng.num_shards(); ++k) {
      ASSERT_TRUE(eng.AppendBatch(key_of[k], PageBatch(key_of[k], rows, n))
                      .ok());
    }
    ASSERT_TRUE(eng.Flush().ok());
    rows += n;
    if (n == 777) {
      ASSERT_TRUE(eng.shard(0)->Compact().ok());
    }
  }
  ASSERT_EQ(eng.shard(0)->segments().size(), 2u);
  const uint64_t seg_rows = rows;
  auto append_all = [&](uint64_t n) {
    for (size_t k = 0; k < eng.num_shards(); ++k) {
      ASSERT_TRUE(eng.AppendBatch(key_of[k], PageBatch(key_of[k], rows, n))
                      .ok());
    }
    rows += n;
  };
  append_all(600);
  ASSERT_TRUE(fail::FailPoints::Set("lsm.flush", "err@1").ok());
  ASSERT_TRUE(eng.shard(1)->ScheduleFlush().ok());  // held: immutable
  append_all(333);

  const std::vector<std::string> names = {"t", "v", "f"};
  for (size_t c = 0; c < names.size(); ++c) {
    std::vector<std::vector<double>> oracle(eng.num_shards());
    for (size_t k = 0; k < eng.num_shards(); ++k) {
      oracle[k] = SegmentRows(*eng.shard(k), names[c]);
      ASSERT_EQ(oracle[k].size(), seg_rows);
      for (uint64_t r = seg_rows; r < rows; ++r) {
        const double v[] = {static_cast<double>(r),
                            static_cast<double>(key_of[k]) * 1e6 +
                                static_cast<double>(r),
                            FValue(r)};
        oracle[k].push_back(v[c]);
      }
      ASSERT_EQ(oracle[k].back(), c == 2 ? FValue(rows - 1)
                                         : oracle[k][rows - 1]);
    }
    auto snap = eng.SnapshotReadShards(names[c]);
    ASSERT_TRUE(snap.ok()) << snap.status().ToString();
    EXPECT_EQ(snap.value(), oracle) << names[c];

    std::promise<Result<std::vector<std::vector<double>>>> in_task;
    ThreadPool::Shared().Submit(
        [&] { in_task.set_value(eng.SnapshotReadShards(names[c])); });
    auto inline_snap = in_task.get_future().get();
    ASSERT_TRUE(inline_snap.ok()) << inline_snap.status().ToString();
    EXPECT_EQ(inline_snap.value(), oracle) << names[c] << " in a pool task";
  }
  eng.shard(1)->InterruptRetries();
  EXPECT_FALSE(eng.shard(1)->WaitForFlush().ok());
  fail::FailPoints::ClearAll();
}

TEST_F(ShardTest, PageTaskSnapshotsAreCutsOfTheFinalSegmentsUnderIngest) {
  // Two writers append while segments flush and compact in the
  // background; every snapshot taken meanwhile must be batch-aligned
  // and, shard by shard, a prefix of what the final segments hold when
  // read one by one through ColumnStore::ReadRows.
  ShardOptions opt = PageOptions();
  opt.engine.memtable_bytes = 32 << 10;  // about 1365 rows per flush
  opt.engine.compact_fanout = 2;
  auto opened = ShardedIngestEngine::Open(dir_, PageSchema(), opt);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  auto& eng = *opened.value();

  constexpr size_t kWriters = 2;
  constexpr size_t kSeriesPerWriter = 8;
  constexpr size_t kBatch = 50;
  constexpr size_t kRounds = 30;
  std::atomic<bool> write_failed{false};
  std::vector<std::thread> writers;
  for (size_t w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (size_t i = 0; i < kRounds; ++i) {
        for (size_t j = 0; j < kSeriesPerWriter; ++j) {
          const uint64_t series = w + j * kWriters;
          const Status st = eng.AppendBatchUntil(
              series, PageBatch(series, i * kBatch, kBatch),
              std::chrono::steady_clock::now() + std::chrono::seconds(30));
          if (!st.ok()) write_failed = true;
        }
      }
    });
  }
  constexpr uint64_t kSeries = kWriters * kSeriesPerWriter;
  std::vector<std::vector<std::vector<double>>> v_snaps, f_snaps;
  for (size_t i = 0; i < 20; ++i) {
    auto v = eng.SnapshotReadShards("v");
    ASSERT_TRUE(v.ok()) << v.status().ToString();
    for (uint64_t s = 0; s < kSeries; ++s) {
      size_t n = 0;
      for (double x : v.value()[eng.ShardOf(s)]) {
        if (static_cast<uint64_t>(x / 1e6) == s) ++n;
      }
      ASSERT_EQ(n % kBatch, 0u) << "torn batch: series " << s;
    }
    v_snaps.push_back(std::move(v).value());
    auto f = eng.SnapshotReadShards("f");
    ASSERT_TRUE(f.ok()) << f.status().ToString();
    f_snaps.push_back(std::move(f).value());
  }
  for (auto& t : writers) t.join();
  EXPECT_FALSE(write_failed.load());
  ASSERT_TRUE(eng.Flush().ok());

  for (size_t k = 0; k < eng.num_shards(); ++k) {
    const std::vector<double> v = SegmentRows(*eng.shard(k), "v");
    const std::vector<double> f = SegmentRows(*eng.shard(k), "f");
    ASSERT_EQ(v.size(), eng.shard(k)->rows()) << "shard " << k;
    ASSERT_EQ(f.size(), v.size()) << "shard " << k;
    for (const auto& snap : v_snaps) {
      ASSERT_LE(snap[k].size(), v.size());
      EXPECT_TRUE(std::equal(snap[k].begin(), snap[k].end(), v.begin()))
          << "shard " << k << ": a v snapshot is not a prefix";
    }
    for (const auto& snap : f_snaps) {
      ASSERT_LE(snap[k].size(), f.size());
      EXPECT_TRUE(std::equal(snap[k].begin(), snap[k].end(), f.begin()))
          << "shard " << k << ": an f snapshot is not a prefix";
    }
  }
  EXPECT_EQ(eng.rows(), kSeries * kRounds * kBatch);
}

/// XORs 0xff into the first stored byte of page `page` of the PagedFile
/// at `path` (its page codec's own header, not the container's).
void FlipPageByte(const std::string& path, size_t page) {
  auto bytes = fs::ReadFile(path);
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  Buffer file = std::move(bytes).TakeValue();
  const ByteSpan in = file.span();
  size_t off = 0;
  uint32_t magic = 0;
  uint64_t name_len = 0, page_bytes = 0, rank = 0, extent = 0, npages = 0;
  uint8_t dtype = 0, digits = 0;
  ASSERT_TRUE(GetFixed(in, &off, &magic) && GetVarint64(in, &off, &name_len));
  off += name_len;
  ASSERT_TRUE(GetVarint64(in, &off, &page_bytes) &&
              GetFixed(in, &off, &dtype) && GetFixed(in, &off, &digits) &&
              GetVarint64(in, &off, &rank));
  for (uint64_t d = 0; d < rank; ++d) {
    ASSERT_TRUE(GetVarint64(in, &off, &extent));
  }
  ASSERT_TRUE(GetVarint64(in, &off, &npages));
  ASSERT_LT(page, npages);
  std::vector<uint64_t> sizes(npages);
  for (auto& s : sizes) ASSERT_TRUE(GetVarint64(in, &off, &s));
  for (size_t p = 0; p < page; ++p) off += sizes[p];
  file.data()[off] ^= 0xff;
  ASSERT_TRUE(fs::WriteFileAtomic(path, file.span(), /*durable=*/false).ok());
}

TEST_F(ShardTest, CorruptMiddlePageFailsEveryReadOfItsShard) {
  // Each shard holds two 2000-row segments of 4 pages plus memtable
  // rows. One byte flipped in page 2 of shard 2's first segment, column
  // v, fails the snapshot with Corruption annotated with shard 2 while
  // the other shards' pages decode on other threads; the shard's own
  // ReadColumn and a compaction over the segment fail the same way, and
  // column t still reads. A missing file of a column not opened yet
  // fails cleanly too; an open column keeps serving without its file.
  auto opened = ShardedIngestEngine::Open(dir_, PageSchema(), PageOptions());
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  auto& eng = *opened.value();
  const std::vector<uint64_t> key_of = KeyPerShard(eng);
  for (uint64_t start : {0, 2000}) {
    for (size_t k = 0; k < eng.num_shards(); ++k) {
      ASSERT_TRUE(
          eng.AppendBatch(key_of[k], PageBatch(key_of[k], start, 2000)).ok());
    }
    ASSERT_TRUE(eng.Flush().ok());
  }
  for (size_t k = 0; k < eng.num_shards(); ++k) {
    ASSERT_TRUE(
        eng.AppendBatch(key_of[k], PageBatch(key_of[k], 4000, 10)).ok());
  }
  lsm::IngestEngine& shard2 = *eng.shard(2);
  ASSERT_EQ(shard2.segments().size(), 2u);
  const std::string seg = SegmentPrefix(shard2, shard2.segments()[0].id);
  FlipPageByte(seg + ".1.col", 2);  // column 1 is v

  auto snap = eng.SnapshotReadShards("v");
  ASSERT_FALSE(snap.ok());
  EXPECT_EQ(snap.status().code(), StatusCode::kCorruption)
      << snap.status().ToString();
  EXPECT_EQ(snap.status().message().rfind("shard 2: ", 0), 0u)
      << snap.status().ToString();
  auto direct = shard2.ReadColumn("v");
  ASSERT_FALSE(direct.ok());
  EXPECT_EQ(snap.status().message(), "shard 2: " + direct.status().message());
  const Status compacted = shard2.Compact();
  EXPECT_EQ(compacted.code(), StatusCode::kCorruption) << compacted.ToString();
  EXPECT_EQ(compacted.message(), direct.status().message());
  EXPECT_EQ(shard2.segments().size(), 2u) << "a failed compaction installed";
  auto t = eng.SnapshotReadShards("t");
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  EXPECT_EQ(t.value()[2].size(), 4010u);

  // A missing file of a column no read has opened yet fails that
  // column's reads cleanly, annotated with its shard; the open columns
  // keep serving.
  lsm::IngestEngine& shard3 = *eng.shard(3);
  const std::string seg3 = SegmentPrefix(shard3, shard3.segments()[1].id);
  ASSERT_TRUE(fs::RemoveFile(seg3 + ".2.col").ok());  // column 2 is f
  auto missing = eng.SnapshotReadShards("f");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kIoError)
      << missing.status().ToString();
  EXPECT_EQ(missing.status().message().rfind("shard 3: ", 0), 0u)
      << missing.status().ToString();
  EXPECT_TRUE(eng.SnapshotReadShards("t").ok());

  // An open column serves from its mapping until its segment retires,
  // even once its file is gone. Finding that is Scrub's job, and a read
  // error is a finding, not a corruption verdict: nothing is quarantined.
  ASSERT_TRUE(fs::RemoveFile(seg3 + ".0.col").ok());  // column 0 is t
  auto still = eng.SnapshotReadShards("t");
  ASSERT_TRUE(still.ok()) << still.status().ToString();
  EXPECT_EQ(still.value(), t.value());
  auto scrub = shard3.Scrub();
  ASSERT_TRUE(scrub.ok()) << scrub.status().ToString();
  EXPECT_TRUE(scrub.value().quarantined_ids.empty());
  ASSERT_EQ(scrub.value().notes.size(), 1u);
  EXPECT_NE(scrub.value().notes[0].find("verify error"), std::string::npos)
      << scrub.value().notes[0];
  EXPECT_NE(scrub.value().notes[0].find(seg3 + ".0.col"), std::string::npos)
      << scrub.value().notes[0];
  EXPECT_EQ(shard3.segments().size(), 2u);
}

/// `fs.read` hits (manifest reads and column-file maps) of `read`.
template <typename Read>
uint64_t FileReadsOf(Read&& read) {
  fail::FailPoints::EnableCounting(true);
  fail::FailPoints::ResetCounters();
  read();
  const uint64_t hits = fail::FailPoints::HitCount("fs.read");
  fail::FailPoints::EnableCounting(false);
  fail::FailPoints::ResetCounters();
  return hits;
}

TEST_F(ShardTest, SnapshotReadOpensEachSegmentColumnOnce) {
  // Every shard holds two segments. The first snapshot of a column reads
  // each segment's manifest and maps its column file (two fs.read hits
  // per segment); every later snapshot of it only decodes pages. Reading
  // another column opens that column's files and no others.
  auto opened = ShardedIngestEngine::Open(dir_, PageSchema(), PageOptions());
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  auto& eng = *opened.value();
  const std::vector<uint64_t> key_of = KeyPerShard(eng);
  for (uint64_t start : {0, 1500}) {
    for (size_t k = 0; k < eng.num_shards(); ++k) {
      ASSERT_TRUE(
          eng.AppendBatch(key_of[k], PageBatch(key_of[k], start, 1500)).ok());
    }
    ASSERT_TRUE(eng.Flush().ok());
  }
  const uint64_t segments = 2 * eng.num_shards();
  auto expect_exact = [&](const std::string& column,
                          const Result<std::vector<std::vector<double>>>& r) {
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    for (size_t k = 0; k < eng.num_shards(); ++k) {
      EXPECT_EQ(r.value()[k], SegmentRows(*eng.shard(k), column))
          << column << " shard " << k;
    }
  };

  Result<std::vector<std::vector<double>>> snap = Status::Internal("unread");
  EXPECT_EQ(FileReadsOf([&] { snap = eng.SnapshotReadShards("v"); }),
            2 * segments);
  expect_exact("v", snap);
  EXPECT_EQ(FileReadsOf([&] { snap = eng.SnapshotReadShards("v"); }), 0u);
  expect_exact("v", snap);
  EXPECT_EQ(FileReadsOf([&] { snap = eng.SnapshotReadShards("f"); }),
            2 * segments);
  expect_exact("f", snap);
  EXPECT_EQ(FileReadsOf([&] {
              snap = eng.SnapshotReadShards("v");
              if (snap.ok()) snap = eng.SnapshotReadShards("f");
            }),
            0u);
  expect_exact("f", snap);
}

// ---------------------------------------------------------------------------
// Coordinated flush, scrub, health
// ---------------------------------------------------------------------------

TEST_F(ShardTest, CoordinatedFlushDrainsEveryShard) {
  ShardOptions opt = TestOptions(4);
  opt.engine.background_flush = true;  // overlap on the shared pool
  auto opened = ShardedIngestEngine::Open(dir_, TestSchema(), opt);
  ASSERT_TRUE(opened.ok());
  auto& eng = *opened.value();
  for (uint64_t s = 0; s < 16; ++s) {
    ASSERT_TRUE(eng.AppendBatch(s, Batch(s, 0, 20)).ok());
  }
  ASSERT_TRUE(eng.Flush().ok());
  const HealthReport h = eng.Health();
  for (const auto& sh : h.shards) {
    EXPECT_EQ(sh.buffered_bytes, 0u) << "shard " << sh.shard;
  }
  EXPECT_EQ(h.budget_used, 0u);
  EXPECT_EQ(eng.rows(), 16u * 20u);
  // Flushed rows are still all readable.
  auto v = eng.ReadColumn("v");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value().size(), 16u * 20u);
}

TEST_F(ShardTest, ScrubAggregatesAcrossShards) {
  auto opened = ShardedIngestEngine::Open(dir_, TestSchema(), TestOptions(4));
  ASSERT_TRUE(opened.ok());
  auto& eng = *opened.value();
  for (uint64_t s = 0; s < 16; ++s) {
    ASSERT_TRUE(eng.AppendBatch(s, Batch(s, 0, 20)).ok());
  }
  ASSERT_TRUE(eng.Flush().ok());
  const ScrubSummary sum = eng.Scrub();
  EXPECT_TRUE(sum.all_clean);
  EXPECT_EQ(sum.shards.size(), 4u);
  EXPECT_GT(sum.segments_checked, 0u);
  EXPECT_EQ(sum.segments_quarantined, 0u);
  for (const auto& entry : sum.shards) {
    EXPECT_TRUE(entry.status.ok()) << entry.status.ToString();
    EXPECT_TRUE(entry.report.wal_clean) << "shard " << entry.shard;
  }
}

TEST_F(ShardTest, HealthReportsHealthyStore) {
  auto opened = ShardedIngestEngine::Open(dir_, TestSchema(), TestOptions(4));
  ASSERT_TRUE(opened.ok());
  auto& eng = *opened.value();
  ASSERT_TRUE(eng.AppendBatch(3, Batch(3, 0, 10)).ok());
  const HealthReport h = eng.Health();
  EXPECT_TRUE(h.all_healthy());
  EXPECT_EQ(h.degraded_shards, 0u);
  ASSERT_EQ(h.shards.size(), 4u);
  EXPECT_EQ(h.budget_used, 10u * 2u * sizeof(double));
  EXPECT_GT(h.budget_total, 0u);
  for (const auto& sh : h.shards) {
    EXPECT_FALSE(sh.read_only);
    EXPECT_TRUE(sh.error.ok());
  }
}

uint64_t CounterValue(const char* name) {
  return obs::MetricsRegistry::Global().GetCounter(name)->value();
}

TEST_F(ShardTest, PerShardStatsAddUpToRegistryCounters) {
  // Health()'s per-shard EngineStats and the process-wide registry
  // record the same events: appends attribute to the routed shard, and
  // summed over shards the flush, compaction and retry totals equal the
  // registry deltas. One injected flush error, absorbed by the retry
  // ladder, makes the retry column non-trivial.
  ASSERT_TRUE(obs::Enabled());
  ShardOptions opt = TestOptions(4);
  opt.engine.memtable_bytes = 2048;
  opt.engine.compact_fanout = 2;
  auto opened = ShardedIngestEngine::Open(dir_, TestSchema(), opt);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  auto& eng = *opened.value();

  const char* kCounters[] = {"lsm.flush.count", "lsm.flush.segment_bytes",
                             "lsm.compact.count", "lsm.retry.attempts"};
  uint64_t before[4];
  for (int i = 0; i < 4; ++i) before[i] = CounterValue(kCounters[i]);

  ASSERT_TRUE(fail::FailPoints::Set("lsm.flush", "err@1").ok());
  std::vector<uint64_t> routed(4, 0);
  for (uint64_t round = 0; round < 8; ++round) {
    for (uint64_t s = 0; s < 16; ++s) {
      ASSERT_TRUE(eng.AppendBatch(s, Batch(s, round * 20, 20)).ok());
      ++routed[eng.ShardOf(s)];
    }
  }
  ASSERT_TRUE(eng.Flush().ok());
  fail::FailPoints::ClearAll();

  const HealthReport h = eng.Health();
  ASSERT_TRUE(h.all_healthy());
  ASSERT_EQ(h.shards.size(), 4u);
  uint64_t sums[4] = {0, 0, 0, 0};
  for (const auto& sh : h.shards) {
    EXPECT_EQ(sh.stats.append_batches, routed[sh.shard])
        << "shard " << sh.shard;
    sums[0] += sh.stats.flushes;
    sums[1] += sh.stats.flush_segment_bytes;
    sums[2] += sh.stats.compactions;
    sums[3] += sh.stats.retry_attempts;
  }
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(sums[i], CounterValue(kCounters[i]) - before[i])
        << kCounters[i];
  }
  EXPECT_GT(sums[0], 4u) << "every shard flushed more than once";
  EXPECT_GT(sums[1], 0u);
  EXPECT_GT(sums[2], 0u) << "fanout 2 merged at least one run";
  EXPECT_EQ(sums[3], 1u) << "the one injected flush error was retried";
}

TEST_F(ShardTest, MalformedBatchIsRejected) {
  auto opened = ShardedIngestEngine::Open(dir_, TestSchema(), TestOptions(2));
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(opened.value()->AppendBatch(0, {1.0, 2.0, 3.0}).code(),
            StatusCode::kInvalidArgument);  // not a multiple of 2 columns
  EXPECT_EQ(opened.value()->AppendBatch(0, {}).code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace fcbench::db::shard

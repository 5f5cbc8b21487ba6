// Tests for the crash-safe LSM ingest engine (src/db/lsm/): WAL framing
// and torn-tail recovery, the kill-at-any-byte crash-consistency sweeps
// (truncate/flip every byte of the WAL, plain and padded with a zero
// tail; every half-published segment state), WAL sealing, recovery
// idempotence, background flush, tiered compaction, reader liveness
// against background work queued on the shared pool, and compaction and
// scrub liveness under back-to-back readers. Double-crash recovery lives
// in lsm_crash_test.cc (fault lane).

#include <gtest/gtest.h>

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "db/column_store.h"
#include "db/lsm/lsm_engine.h"
#include "db/lsm/memtable.h"
#include "db/lsm/wal.h"
#include "lsm_test_util.h"
#include "obs/metrics.h"
#include "util/failpoint.h"
#include "util/fs.h"
#include "util/thread_pool.h"

namespace fcbench::db::lsm {
namespace {

// ---------------------------------------------------------------------------
// MemTable
// ---------------------------------------------------------------------------

/// Distinct value for (row, column) of the MemTable tests.
double Cell(size_t row, size_t col) {
  return static_cast<double>(row) * 16.0 + static_cast<double>(col) + 0.25;
}

/// `nrows` row-major rows starting at row `first`.
std::vector<double> RowMajor(size_t first, size_t nrows, size_t ncols) {
  std::vector<double> rows;
  rows.reserve(nrows * ncols);
  for (size_t r = first; r < first + nrows; ++r) {
    for (size_t c = 0; c < ncols; ++c) rows.push_back(Cell(r, c));
  }
  return rows;
}

TEST(MemTableTest, ScattersUnevenBatchesIntoExactColumns) {
  constexpr size_t kCols = 5;
  MemTable mem(kCols);
  EXPECT_TRUE(mem.empty());
  EXPECT_EQ(mem.num_columns(), kCols);
  size_t total = 0;
  for (const size_t nrows : {1, 7, 64, 1000}) {
    const std::vector<double> batch = RowMajor(total, nrows, kCols);
    mem.AppendRows(batch.data(), nrows);
    total += nrows;
    ASSERT_EQ(mem.rows(), total);
    ASSERT_EQ(mem.bytes(), total * kCols * sizeof(double));
    for (size_t c = 0; c < kCols; ++c) {
      ASSERT_EQ(mem.column(c).size(), total) << "col=" << c;
      for (size_t r = 0; r < total; ++r) {
        ASSERT_EQ(mem.column(c)[r], Cell(r, c)) << "row=" << r << " col=" << c;
      }
    }
  }
  EXPECT_FALSE(mem.empty());
  for (size_t c = 0; c < kCols; ++c) {
    const std::vector<double>& col = mem.column(c);
    ASSERT_EQ(col.size(), total);
    for (size_t r = 0; r < total; ++r) ASSERT_EQ(col[r], Cell(r, c));
  }
}

TEST(MemTableTest, ColumnGrowthIsAmortized) {
  // Exact-fit reservation would reallocate (and copy the whole column)
  // on every append; geometric growth reallocates O(log rows) times.
  constexpr size_t kCols = 8;
  constexpr size_t kBatchRows = 64;
  MemTable mem(kCols);
  const std::vector<double> batch = RowMajor(0, kBatchRows, kCols);
  const double* last = nullptr;
  size_t moves = 0;
  for (size_t i = 0; i < 256; ++i) {
    mem.AppendRows(batch.data(), kBatchRows);
    if (mem.column(0).data() != last) ++moves;
    last = mem.column(0).data();
  }
  EXPECT_EQ(mem.rows(), 256 * kBatchRows);
  EXPECT_LE(moves, 16u);
}

TEST(MemTableTest, ClearKeepsCapacityAndRefillsExactly) {
  constexpr size_t kCols = 3;
  MemTable mem(kCols);
  const std::vector<double> first = RowMajor(0, 500, kCols);
  mem.AppendRows(first.data(), 500);
  std::vector<const double*> data(kCols);
  std::vector<size_t> capacity(kCols);
  for (size_t c = 0; c < kCols; ++c) {
    data[c] = mem.column(c).data();
    capacity[c] = mem.column(c).capacity();
  }

  mem.Clear();
  EXPECT_TRUE(mem.empty());
  EXPECT_EQ(mem.bytes(), 0u);
  EXPECT_EQ(mem.num_columns(), kCols);
  for (size_t c = 0; c < kCols; ++c) {
    EXPECT_TRUE(mem.column(c).empty());
    EXPECT_EQ(mem.column(c).capacity(), capacity[c]);
  }

  // Refilled up to the old size, the columns hold exactly the new rows,
  // in the same storage.
  size_t total = 0;
  for (const size_t nrows : {3, 200, 297}) {
    const std::vector<double> batch = RowMajor(1000 + total, nrows, kCols);
    mem.AppendRows(batch.data(), nrows);
    total += nrows;
  }
  ASSERT_EQ(mem.rows(), total);
  for (size_t c = 0; c < kCols; ++c) {
    EXPECT_EQ(mem.column(c).data(), data[c]) << "col=" << c;
    ASSERT_EQ(mem.column(c).size(), total);
    for (size_t r = 0; r < total; ++r) {
      ASSERT_EQ(mem.column(c)[r], Cell(1000 + r, c)) << "row=" << r;
    }
  }
}

// ---------------------------------------------------------------------------
// Wal / WalReader
// ---------------------------------------------------------------------------

/// Deterministic per-record payload with distinct sizes.
Buffer Payload(size_t i) {
  Buffer b;
  for (size_t k = 0; k < 5 + 7 * i; ++k) {
    b.PushBack(static_cast<uint8_t>(i * 31 + k));
  }
  return b;
}

class WalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = UniqueDir(
        ::testing::UnitTest::GetInstance()->current_test_info()->name());
    ASSERT_TRUE(fs::CreateDir(dir_).ok());
  }
  void TearDown() override { RemoveTree(dir_); }

  std::string dir_;
};

TEST_F(WalTest, AppendCommitReplayRoundTrip) {
  Wal::Options opt;
  auto wal = Wal::Open(dir_, 0, opt);
  ASSERT_TRUE(wal.ok());
  for (size_t i = 0; i < 6; ++i) {
    ASSERT_TRUE(
        wal.value()->Append(Wal::kTypeRows, Payload(i).span()).ok());
    ASSERT_TRUE(wal.value()->Commit().ok());
  }
  ASSERT_TRUE(wal.value()->Close().ok());

  auto replay = WalReader::ReplayDir(dir_, 0);
  ASSERT_TRUE(replay.ok());
  EXPECT_FALSE(replay.value().truncated);
  ASSERT_EQ(replay.value().records.size(), 6u);
  for (size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(replay.value().records[i].type, Wal::kTypeRows);
    EXPECT_EQ(replay.value().records[i].payload.ToVector(),
              Payload(i).ToVector());
  }
}

TEST_F(WalTest, GroupCommitWritesWholeBatchAtomically) {
  Wal::Options opt;
  auto wal = Wal::Open(dir_, 0, opt);
  ASSERT_TRUE(wal.ok());
  // Three appends, one commit: either all three survive or none.
  for (size_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        wal.value()->Append(Wal::kTypeRows, Payload(i).span()).ok());
  }
  ASSERT_TRUE(wal.value()->Commit().ok());
  ASSERT_TRUE(wal.value()->Close().ok());
  auto replay = WalReader::ReplayDir(dir_, 0);
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(replay.value().records.size(), 3u);
}

TEST_F(WalTest, RotationSplitsSegmentsAndReplaysAcross) {
  Wal::Options opt;
  opt.segment_bytes = 64;  // rotate after nearly every record
  auto wal = Wal::Open(dir_, 0, opt);
  ASSERT_TRUE(wal.ok());
  for (size_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(
        wal.value()->Append(Wal::kTypeRows, Payload(i).span()).ok());
    ASSERT_TRUE(wal.value()->Commit().ok());
  }
  EXPECT_GT(wal.value()->seq(), 2u);
  ASSERT_TRUE(wal.value()->Close().ok());

  size_t wal_files = 0;
  auto names = fs::ListDir(dir_);
  ASSERT_TRUE(names.ok());
  for (const auto& n : names.value()) {
    uint64_t seq = 0;
    if (Wal::ParseSegmentFileName(n, &seq)) ++wal_files;
  }
  EXPECT_GT(wal_files, 2u);

  auto replay = WalReader::ReplayDir(dir_, 0);
  ASSERT_TRUE(replay.ok());
  ASSERT_EQ(replay.value().records.size(), 8u);
  for (size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(replay.value().records[i].payload.ToVector(),
              Payload(i).ToVector());
  }
}

TEST_F(WalTest, MinSeqSkipsObsoleteSegments) {
  Wal::Options opt;
  opt.segment_bytes = 1;  // every commit rotates
  auto wal = Wal::Open(dir_, 0, opt);
  ASSERT_TRUE(wal.ok());
  for (size_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(
        wal.value()->Append(Wal::kTypeRows, Payload(i).span()).ok());
    ASSERT_TRUE(wal.value()->Commit().ok());
  }
  ASSERT_TRUE(wal.value()->Close().ok());
  auto replay = WalReader::ReplayDir(dir_, 2);
  ASSERT_TRUE(replay.ok());
  // Records 0 and 1 live in segments 0 and 1, below the floor.
  ASSERT_EQ(replay.value().records.size(), 2u);
  EXPECT_EQ(replay.value().records[0].payload.ToVector(),
            Payload(2).ToVector());
}

/// Builds a single-segment WAL with `n` records and returns the raw
/// segment bytes plus each record's end offset within the file.
void BuildWalFile(const std::string& dir, size_t n, Buffer* bytes,
                  std::vector<size_t>* record_ends) {
  Wal::Options opt;
  opt.segment_bytes = 1 << 20;
  auto wal = Wal::Open(dir, 0, opt);
  ASSERT_TRUE(wal.ok());
  // Segment header: u32 magic + varint version + varint seq(0) = 6 bytes.
  size_t off = 6;
  for (size_t i = 0; i < n; ++i) {
    Buffer p = Payload(i);
    ASSERT_TRUE(wal.value()->Append(Wal::kTypeRows, p.span()).ok());
    ASSERT_TRUE(wal.value()->Commit().ok());
    off += 8 + 4 + 1 + p.size();  // hash, len, type, payload
    record_ends->push_back(off);
  }
  ASSERT_TRUE(wal.value()->Close().ok());
  auto raw = fs::ReadFile(fs::JoinPath(dir, Wal::SegmentFileName(0)));
  ASSERT_TRUE(raw.ok());
  *bytes = std::move(raw).TakeValue();
  ASSERT_EQ(bytes->size(), record_ends->back());
}

TEST_F(WalTest, KillAtAnyByteTruncationSweep) {
  Buffer file;
  std::vector<size_t> ends;
  BuildWalFile(dir_, 6, &file, &ends);

  const std::string probe = dir_ + "_probe";
  for (size_t cut = 0; cut < file.size(); ++cut) {
    ASSERT_TRUE(fs::CreateDir(probe).ok());
    ASSERT_TRUE(fs::WriteFileAtomic(
                    fs::JoinPath(probe, Wal::SegmentFileName(0)),
                    ByteSpan(file.data(), cut), /*durable=*/false)
                    .ok());
    auto replay = WalReader::ReplayDir(probe, 0);
    ASSERT_TRUE(replay.ok()) << "cut=" << cut;
    // Exactly the records that fully fit below the cut survive.
    size_t expect = 0;
    while (expect < ends.size() && ends[expect] <= cut) ++expect;
    ASSERT_EQ(replay.value().records.size(), expect) << "cut=" << cut;
    for (size_t i = 0; i < expect; ++i) {
      ASSERT_EQ(replay.value().records[i].payload.ToVector(),
                Payload(i).ToVector())
          << "cut=" << cut;
    }
    // The truncation flag fires exactly when the cut left partial bytes:
    // a cut at a record boundary (or right after the segment header) is
    // indistinguishable from a log that committed fewer records.
    const bool clean_boundary =
        cut == 6 || (expect > 0 && ends[expect - 1] == cut);
    EXPECT_EQ(replay.value().truncated, !clean_boundary) << "cut=" << cut;
    RemoveTree(probe);
  }
}

TEST_F(WalTest, KillAtAnyByteBitFlipSweep) {
  Buffer file;
  std::vector<size_t> ends;
  BuildWalFile(dir_, 6, &file, &ends);

  const std::string probe = dir_ + "_probe";
  for (size_t flip = 0; flip < file.size(); ++flip) {
    Buffer corrupt = Buffer::FromSpan(file.span());
    corrupt.data()[flip] ^= 0x40;
    ASSERT_TRUE(fs::CreateDir(probe).ok());
    ASSERT_TRUE(fs::WriteFileAtomic(
                    fs::JoinPath(probe, Wal::SegmentFileName(0)),
                    corrupt.span(), /*durable=*/false)
                    .ok());
    auto replay = WalReader::ReplayDir(probe, 0);
    ASSERT_TRUE(replay.ok()) << "flip=" << flip;
    // Prefix law: whatever is recovered must be an intact prefix of the
    // appended record sequence (a flip can only truncate, never corrupt
    // a surviving record or resurrect a later one without the earlier).
    const auto& recs = replay.value().records;
    ASSERT_LE(recs.size(), ends.size()) << "flip=" << flip;
    for (size_t i = 0; i < recs.size(); ++i) {
      ASSERT_EQ(recs[i].payload.ToVector(), Payload(i).ToVector())
          << "flip=" << flip;
    }
    // A flip past the last record's end cannot exist (file ends there);
    // a flip inside record i's bytes truncates to at most i records.
    size_t owner = 0;
    while (owner < ends.size() && ends[owner] <= flip) ++owner;
    if (flip >= 6) {  // flips in the segment header drop everything
      ASSERT_LE(recs.size(), owner) << "flip=" << flip;
    } else {
      ASSERT_EQ(recs.size(), 0u) << "flip=" << flip;
    }
    RemoveTree(probe);
  }
}

/// Writes `bytes` as WAL segment `seq` of `dir`, padded with zeros to
/// fs::AppendFile::kZeroTailBytes: what a durable segment that was live
/// at a crash holds on disk.
void WriteZeroPaddedSegment(const std::string& dir, uint64_t seq,
                            ByteSpan bytes) {
  std::vector<uint8_t> padded(fs::AppendFile::kZeroTailBytes, 0);
  std::copy(bytes.begin(), bytes.end(), padded.begin());
  ASSERT_TRUE(fs::WriteFileAtomic(fs::JoinPath(dir, Wal::SegmentFileName(seq)),
                                  ByteSpan(padded.data(), padded.size()),
                                  /*durable=*/false)
                  .ok());
}

TEST_F(WalTest, KillAtAnyByteTruncationSweepZeroPadded) {
  Buffer file;
  std::vector<size_t> ends;
  BuildWalFile(dir_, 6, &file, &ends);

  const std::string probe = dir_ + "_probe";
  for (size_t cut = 0; cut < file.size(); ++cut) {
    ASSERT_TRUE(fs::CreateDir(probe).ok());
    WriteZeroPaddedSegment(probe, 0, ByteSpan(file.data(), cut));
    auto replay = WalReader::ReplayDir(probe, 0);
    ASSERT_TRUE(replay.ok()) << "cut=" << cut;
    // The zeros never complete a record: the same prefix survives as
    // without them.
    size_t expect = 0;
    while (expect < ends.size() && ends[expect] <= cut) ++expect;
    ASSERT_EQ(replay.value().records.size(), expect) << "cut=" << cut;
    for (size_t i = 0; i < expect; ++i) {
      ASSERT_EQ(replay.value().records[i].payload.ToVector(),
                Payload(i).ToVector())
          << "cut=" << cut;
    }
    // After an intact header, a cut whose partial record is all zeros (a
    // cut at a record boundary, in particular) leaves an all-zero
    // remainder: the clean end of a live segment, not a torn tail. The
    // header's last byte (varint seq 0) is itself zero, so the padding
    // completes a header cut after 5 bytes.
    const bool header_ok = cut >= 5;
    const size_t boundary = expect > 0 ? ends[expect - 1] : 6;
    const bool zero_rest =
        header_ok &&
        std::all_of(file.data() + std::min(boundary, cut), file.data() + cut,
                    [](uint8_t b) { return b == 0; });
    EXPECT_EQ(replay.value().truncated, !zero_rest) << "cut=" << cut;
    if (cut == boundary) {
      EXPECT_FALSE(replay.value().truncated);
    }
    EXPECT_EQ(replay.value().end_offset, header_ok ? boundary : 0u)
        << "cut=" << cut;
    RemoveTree(probe);
  }
}

TEST_F(WalTest, KillAtAnyByteBitFlipSweepZeroPadded) {
  Buffer file;
  std::vector<size_t> ends;
  BuildWalFile(dir_, 6, &file, &ends);

  const std::string probe = dir_ + "_probe";
  for (size_t flip = 0; flip < file.size(); ++flip) {
    Buffer corrupt = Buffer::FromSpan(file.span());
    corrupt.data()[flip] ^= 0x40;
    ASSERT_TRUE(fs::CreateDir(probe).ok());
    WriteZeroPaddedSegment(probe, 0, corrupt.span());
    auto replay = WalReader::ReplayDir(probe, 0);
    ASSERT_TRUE(replay.ok()) << "flip=" << flip;
    // The prefix law of the unpadded sweep: a flip in record i keeps at
    // most records 0..i-1, a flip in the header keeps nothing, and the
    // zeros after a corrupt record do not make it a clean end.
    const auto& recs = replay.value().records;
    for (size_t i = 0; i < recs.size(); ++i) {
      ASSERT_EQ(recs[i].payload.ToVector(), Payload(i).ToVector())
          << "flip=" << flip;
    }
    size_t owner = 0;
    while (owner < ends.size() && ends[owner] <= flip) ++owner;
    if (flip >= 6) {
      ASSERT_LE(recs.size(), owner) << "flip=" << flip;
    } else {
      ASSERT_EQ(recs.size(), 0u) << "flip=" << flip;
    }
    EXPECT_TRUE(replay.value().truncated) << "flip=" << flip;
    RemoveTree(probe);
  }
}

TEST_F(WalTest, ZeroTailEndsASegmentCleanlyAndReplayGoesOn) {
  Buffer file;
  std::vector<size_t> ends;
  BuildWalFile(dir_, 3, &file, &ends);
  const std::string probe = dir_ + "_probe";
  ASSERT_TRUE(fs::CreateDir(probe).ok());
  // Segment 0 was live at a crash (zero tail); segment 1 follows it.
  WriteZeroPaddedSegment(probe, 0, file.span());
  Wal::Options opt;
  {
    auto wal = Wal::Open(probe, 1, opt);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(wal.value()->Append(Wal::kTypeRows, Payload(3).span()).ok());
    ASSERT_TRUE(wal.value()->Close().ok());
  }
  auto replay = WalReader::ReplayDir(probe, 0);
  ASSERT_TRUE(replay.ok());
  EXPECT_FALSE(replay.value().truncated);
  ASSERT_EQ(replay.value().records.size(), 4u);
  EXPECT_EQ(replay.value().records[3].payload.ToVector(),
            Payload(3).ToVector());
  EXPECT_EQ(replay.value().end_seq, 1u);

  // One non-zero byte after the zeros: corruption, and the prefix ends
  // inside segment 0.
  std::vector<uint8_t> bad(fs::AppendFile::kZeroTailBytes, 0);
  std::copy(file.span().begin(), file.span().end(), bad.begin());
  bad.back() = 1;
  ASSERT_TRUE(fs::WriteFileAtomic(
                  fs::JoinPath(probe, Wal::SegmentFileName(0)),
                  ByteSpan(bad.data(), bad.size()), /*durable=*/false)
                  .ok());
  replay = WalReader::ReplayDir(probe, 0);
  ASSERT_TRUE(replay.ok());
  EXPECT_TRUE(replay.value().truncated);
  EXPECT_EQ(replay.value().records.size(), 3u);
  EXPECT_EQ(replay.value().end_seq, 0u);
  EXPECT_EQ(replay.value().end_offset, file.size());
  RemoveTree(probe);
}

TEST_F(WalTest, DurableSegmentKeepsAZeroTailWhileLiveAndSealsOnRotate) {
  Wal::Options opt;  // sync_on_commit
  auto wal = Wal::Open(dir_, 0, opt);
  ASSERT_TRUE(wal.ok());
  const std::string seg0 = fs::JoinPath(dir_, Wal::SegmentFileName(0));
  size_t logical = 6;
  for (size_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(wal.value()->Append(Wal::kTypeRows, Payload(i).span()).ok());
    ASSERT_TRUE(wal.value()->Commit().ok());
    logical += 8 + 4 + 1 + Payload(i).size();
    // The first commit wrote the zero tail; the rest overwrite it.
    auto size = fs::FileSize(seg0);
    ASSERT_TRUE(size.ok());
    EXPECT_EQ(size.value(), fs::AppendFile::kZeroTailBytes);
  }
  // A reader of the live segment sees a clean end.
  auto replay = WalReader::ReplayDir(dir_, 0);
  ASSERT_TRUE(replay.ok());
  EXPECT_FALSE(replay.value().truncated);
  EXPECT_EQ(replay.value().records.size(), 4u);
  EXPECT_EQ(replay.value().end_offset, logical);

  // Rotation seals segment 0 and leaves segment 1 header-sized.
  ASSERT_TRUE(wal.value()->Rotate().ok());
  auto size = fs::FileSize(seg0);
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(size.value(), logical);
  size = fs::FileSize(fs::JoinPath(dir_, Wal::SegmentFileName(1)));
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(size.value(), 6u);
  ASSERT_TRUE(wal.value()->Close().ok());
}

TEST_F(WalTest, SealCutsTheTailOrRewritesABadHeader) {
  Buffer file;
  std::vector<size_t> ends;
  BuildWalFile(dir_, 3, &file, &ends);
  const std::string path = fs::JoinPath(dir_, Wal::SegmentFileName(0));
  WriteZeroPaddedSegment(dir_, 0, ByteSpan(file.data(), ends[2] - 3));
  ASSERT_TRUE(Wal::Seal(dir_, 0, ends[1]).ok());
  auto size = fs::FileSize(path);
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(size.value(), ends[1]);

  // A header torn at byte 2: sealing leaves a valid, empty segment.
  ASSERT_TRUE(fs::WriteFileAtomic(path, ByteSpan(file.data(), 2), false).ok());
  ASSERT_TRUE(Wal::Seal(dir_, 0, 0).ok());
  auto replay = WalReader::ReplayDir(dir_, 0);
  ASSERT_TRUE(replay.ok());
  EXPECT_FALSE(replay.value().truncated);
  EXPECT_TRUE(replay.value().records.empty());
  EXPECT_EQ(replay.value().end_offset, 6u);
}

TEST_F(WalTest, CommittedRecordBytesMatchGoldenFormat) {
  // Pins the on-disk record format (hash | len | type | payload, the
  // hash being xxh64 over len|type|payload) byte for byte: any rewrite of
  // the record encoder must leave existing logs readable.
  Wal::Options opt;
  auto wal = Wal::Open(dir_, 0, opt);
  ASSERT_TRUE(wal.ok());
  const std::string text = "fcbench wal";
  const uint8_t raw[] = {0x00, 0xff, 0x10, 0x80};
  ASSERT_TRUE(wal.value()
                  ->Append(Wal::kTypeRows,
                           AsBytes(text.data(), text.size()))
                  .ok());
  ASSERT_TRUE(wal.value()->Append(7, ByteSpan(raw, sizeof(raw))).ok());
  ASSERT_TRUE(wal.value()->Commit().ok());
  ASSERT_TRUE(wal.value()->Close().ok());

  auto file = fs::ReadFile(fs::JoinPath(dir_, Wal::SegmentFileName(0)));
  ASSERT_TRUE(file.ok());
  const ByteSpan bytes = file.value().span();
  // Segment header: u32 magic + varint version + varint seq(0) = 6 bytes.
  ASSERT_GE(bytes.size(), 6u);
  std::string hex;
  for (size_t i = 6; i < bytes.size(); ++i) {
    char b[3];
    std::snprintf(b, sizeof(b), "%02x", bytes[i]);
    hex += b;
  }
  EXPECT_EQ(hex,
            "068dae22ad9508720b00000001666362656e63682077616c"
            "bb5f84c53c9b664d040000000700ff1080");
}

TEST_F(WalTest, TwoSpanAppendWritesTheOneSpanBytes) {
  // Every split of a payload into head and body, the empty ones
  // included, must commit the bytes of the one-span form.
  const Buffer payload = Payload(9);
  const ByteSpan all = payload.span();
  Wal::Options opt;
  auto joined = Wal::Open(dir_, 0, opt);
  auto split = Wal::Open(dir_, 1, opt);
  ASSERT_TRUE(joined.ok() && split.ok());
  for (size_t cut = 0; cut <= all.size(); ++cut) {
    ASSERT_TRUE(joined.value()->Append(Wal::kTypeRows, all).ok());
    ASSERT_TRUE(split.value()
                    ->Append(Wal::kTypeRows, all.first(cut),
                             all.subspan(cut))
                    .ok());
  }
  ASSERT_TRUE(joined.value()->Append(3, ByteSpan()).ok());
  ASSERT_TRUE(split.value()->Append(3, ByteSpan(), ByteSpan()).ok());
  ASSERT_TRUE(joined.value()->Close().ok());
  ASSERT_TRUE(split.value()->Close().ok());

  auto a = fs::ReadFile(fs::JoinPath(dir_, Wal::SegmentFileName(0)));
  auto b = fs::ReadFile(fs::JoinPath(dir_, Wal::SegmentFileName(1)));
  ASSERT_TRUE(a.ok() && b.ok());
  // Past the headers, which differ only in the segment seq varint.
  constexpr size_t kHeader = 6;
  ASSERT_GT(a.value().size(), kHeader);
  const ByteSpan ra = a.value().span().subspan(kHeader);
  const ByteSpan rb = b.value().span().subspan(kHeader);
  EXPECT_TRUE(std::equal(ra.begin(), ra.end(), rb.begin(), rb.end()));
}

TEST_F(WalTest, TwoSpanAppendRejectsAnOversizedPayload) {
  // Each span alone fits; together they are one byte over the limit.
  const std::vector<uint8_t> half(Wal::kMaxRecordBytes / 2 + 1);
  const ByteSpan span(half.data(), half.size());
  Wal::Options opt;
  auto wal = Wal::Open(dir_, 0, opt);
  ASSERT_TRUE(wal.ok());
  EXPECT_EQ(wal.value()->Append(Wal::kTypeRows, span, span.first(
                                    Wal::kMaxRecordBytes / 2)).code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(wal.value()->Close().ok());
  auto replay = WalReader::ReplayDir(dir_, 0);
  ASSERT_TRUE(replay.ok());
  EXPECT_TRUE(replay.value().records.empty());
}

// ---------------------------------------------------------------------------
// IngestEngine
// ---------------------------------------------------------------------------

TEST_F(LsmEngineTest, AppendFlushReadBack) {
  auto eng = IngestEngine::Open(dir_, Schema(), FastOptions());
  ASSERT_TRUE(eng.ok()) << eng.status().ToString();
  ASSERT_TRUE(AppendRows(*eng.value(), 0, 3000, 7).ok());
  EXPECT_EQ(eng.value()->rows(), 3000u);
  ASSERT_TRUE(eng.value()->Flush().ok());
  ASSERT_EQ(eng.value()->segments().size(), 1u);
  EXPECT_EQ(eng.value()->segments()[0].rows, 3000u);
  ExpectColumnsEqualPrefix(*eng.value(), 3000);
}

TEST_F(LsmEngineTest, FlushesRecycleTheMemtable) {
  // Each flush parks its memtable, cleared, as the spare, and the next
  // swap takes it instead of allocating: every flush after the first
  // reuses one. Reads stay exact across the reuse.
  if (!obs::Enabled()) GTEST_SKIP() << "metrics disabled";
  obs::Counter* recycled =
      obs::MetricsRegistry::Global().GetCounter("lsm.memtable.recycled");
  auto eng = IngestEngine::Open(dir_, Schema(), FastOptions());
  ASSERT_TRUE(eng.ok()) << eng.status().ToString();
  const uint64_t before = recycled->value();
  constexpr uint64_t kFlushes = 5;
  constexpr uint64_t kRows = 700;
  for (uint64_t f = 0; f < kFlushes; ++f) {
    ASSERT_TRUE(AppendRows(*eng.value(), f * kRows, (f + 1) * kRows, 50).ok());
    ExpectColumnsEqualPrefix(*eng.value(), (f + 1) * kRows);
    ASSERT_TRUE(eng.value()->Flush().ok());
  }
  EXPECT_EQ(recycled->value() - before, kFlushes - 1);
  ASSERT_TRUE(AppendRows(*eng.value(), kFlushes * kRows,
                         (kFlushes + 1) * kRows, 50).ok());
  EXPECT_EQ(eng.value()->buffered_bytes(), kRows * 3 * sizeof(double));
  ExpectColumnsEqualPrefix(*eng.value(), (kFlushes + 1) * kRows);
}

// glibc's malloc, not a sanitizer's replacement (which ignores mallopt).
#if defined(__GLIBC__) && !defined(__SANITIZE_ADDRESS__) && \
    !defined(__SANITIZE_THREAD__)
#define FCBENCH_GLIBC_MALLOC 1
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#undef FCBENCH_GLIBC_MALLOC
#endif
#endif
#endif

TEST_F(LsmEngineTest, FreedScanSizedBuffersStayMappedAfterOpen) {
  // A scan allocates multi-MB buffers and frees them. Once an engine is
  // open, the next same-sized allocation must reuse those pages rather
  // than fault fresh ones in. Under glibc's default dynamic thresholds
  // the second round lands in a fresh arena heap and faults ~2,000 times.
  auto eng = IngestEngine::Open(dir_, Schema(), FastOptions());
  ASSERT_TRUE(eng.ok()) << eng.status().ToString();
  constexpr size_t kBytes = size_t{8} << 20;
  long faults[2] = {0, 0};
  std::thread t([&] {
    for (long& f : faults) {
      struct rusage before {};
      struct rusage after {};
      ::getrusage(RUSAGE_THREAD, &before);
      char* p = static_cast<char*>(std::malloc(kBytes));
      ASSERT_NE(p, nullptr);
      volatile char* touch = p;
      for (size_t i = 0; i < kBytes; i += 4096) touch[i] = 1;
      std::free(p);
      ::getrusage(RUSAGE_THREAD, &after);
      f = after.ru_minflt - before.ru_minflt;
    }
  });
  t.join();
#ifdef FCBENCH_GLIBC_MALLOC
  EXPECT_LT(faults[1], 256) << "first round faulted " << faults[0];
#else
  GTEST_SKIP() << "not glibc malloc: the allocator policy does not apply";
#endif
}

TEST_F(LsmEngineTest, MemtableRecoversFromWalAfterCrash) {
  {
    auto eng = IngestEngine::Open(dir_, Schema(), FastOptions());
    ASSERT_TRUE(eng.ok());
    ASSERT_TRUE(AppendRows(*eng.value(), 0, 100, 9).ok());
    // Destroyed without Flush: a crash as far as the memtable is
    // concerned. The WAL alone must carry the rows.
  }
  auto eng = IngestEngine::Open(dir_, Schema(), FastOptions());
  ASSERT_TRUE(eng.ok()) << eng.status().ToString();
  EXPECT_EQ(eng.value()->rows(), 100u);
  EXPECT_TRUE(eng.value()->segments().empty());
  ExpectColumnsEqualPrefix(*eng.value(), 100);

  // The recovered engine keeps ingesting and flushing normally.
  ASSERT_TRUE(AppendRows(*eng.value(), 100, 150, 9).ok());
  ASSERT_TRUE(eng.value()->Flush().ok());
  ExpectColumnsEqualPrefix(*eng.value(), 150);
}

TEST_F(LsmEngineTest, FlushSurvivesCrashAndDoesNotReplayFlushedRows) {
  {
    auto eng = IngestEngine::Open(dir_, Schema(), FastOptions());
    ASSERT_TRUE(eng.ok());
    ASSERT_TRUE(AppendRows(*eng.value(), 0, 64, 8).ok());
    ASSERT_TRUE(eng.value()->Flush().ok());
    ASSERT_TRUE(AppendRows(*eng.value(), 64, 100, 8).ok());
  }
  auto eng = IngestEngine::Open(dir_, Schema(), FastOptions());
  ASSERT_TRUE(eng.ok());
  EXPECT_EQ(eng.value()->rows(), 100u);  // 64 in the segment + 36 replayed
  ASSERT_EQ(eng.value()->segments().size(), 1u);
  ExpectColumnsEqualPrefix(*eng.value(), 100);
}

TEST_F(LsmEngineTest, KillAtAnyByteOfWalRecoversAPrefix) {
  constexpr uint64_t kBatch = 4, kBatches = 5;
  {
    auto eng = IngestEngine::Open(dir_, Schema(), FastOptions());
    ASSERT_TRUE(eng.ok());
    ASSERT_TRUE(
        AppendRows(*eng.value(), 0, kBatch * kBatches, kBatch).ok());
  }
  const std::string wal_path =
      fs::JoinPath(dir_, Wal::SegmentFileName(0));
  auto file = fs::ReadFile(wal_path);
  ASSERT_TRUE(file.ok());
  const std::string probe = dir_ + "_probe";

  auto check_prefix_consistent = [&](size_t detail) {
    auto eng = IngestEngine::Open(probe, Schema(), FastOptions());
    ASSERT_TRUE(eng.ok()) << "at byte " << detail << ": "
                          << eng.status().ToString();
    const uint64_t rows = eng.value()->rows();
    // Batches are atomic: only whole multiples of the batch size can
    // survive, and the surviving rows must be the exact prefix.
    ASSERT_EQ(rows % kBatch, 0u) << "at byte " << detail;
    ASSERT_LE(rows, kBatch * kBatches) << "at byte " << detail;
    ExpectColumnsEqualPrefix(*eng.value(), rows);
  };

  // Truncate the WAL at every byte offset (crash tore the tail)...
  for (size_t cut = 0; cut <= file.value().size(); ++cut) {
    RemoveTree(probe);
    CopyTree(dir_, probe);
    ASSERT_TRUE(fs::WriteFileAtomic(
                    fs::JoinPath(probe, Wal::SegmentFileName(0)),
                    ByteSpan(file.value().data(), cut), /*durable=*/false)
                    .ok());
    check_prefix_consistent(cut);
  }
  // ... and flip every byte (bit rot / torn sector).
  for (size_t flip = 0; flip < file.value().size(); ++flip) {
    RemoveTree(probe);
    CopyTree(dir_, probe);
    Buffer corrupt = Buffer::FromSpan(file.value().span());
    corrupt.data()[flip] ^= 0x10;
    ASSERT_TRUE(fs::WriteFileAtomic(
                    fs::JoinPath(probe, Wal::SegmentFileName(0)),
                    corrupt.span(), /*durable=*/false)
                    .ok());
    check_prefix_consistent(flip);
  }
}

TEST_F(LsmEngineTest, HalfPublishedSegmentStatesRecoverCleanly) {
  // Base state: one published segment (64 rows) + 36 rows only in WAL.
  {
    auto eng = IngestEngine::Open(dir_, Schema(), FastOptions());
    ASSERT_TRUE(eng.ok());
    ASSERT_TRUE(AppendRows(*eng.value(), 0, 64, 8).ok());
    ASSERT_TRUE(eng.value()->Flush().ok());
    ASSERT_TRUE(AppendRows(*eng.value(), 64, 100, 8).ok());
  }
  const std::string probe = dir_ + "_probe";

  auto reopen_and_verify = [&](const std::string& label) {
    auto eng = IngestEngine::Open(probe, Schema(), FastOptions());
    ASSERT_TRUE(eng.ok()) << label << ": " << eng.status().ToString();
    EXPECT_EQ(eng.value()->rows(), 100u) << label;
    ExpectColumnsEqualPrefix(*eng.value(), 100);
    // The sweep must have removed every temp and every unreferenced
    // segment file.
    auto names = fs::ListDir(probe);
    ASSERT_TRUE(names.ok());
    for (const auto& n : names.value()) {
      EXPECT_FALSE(fs::IsTempPath(n)) << label << " left " << n;
      EXPECT_EQ(n.find("seg-000001"), std::string::npos)
          << label << " left orphan " << n;
    }
  };

  // State A: crashed flush wrote the next segment's column files (and
  // even its ColumnStore manifest) but died before the engine MANIFEST.
  RemoveTree(probe);
  CopyTree(dir_, probe);
  {
    auto col = fs::ReadFile(fs::JoinPath(dir_, "seg-000000.0.col"));
    ASSERT_TRUE(col.ok());
    ASSERT_TRUE(fs::WriteFileAtomic(
                    fs::JoinPath(probe, "seg-000001.0.col"),
                    col.value().span(), false)
                    .ok());
    auto man = fs::ReadFile(fs::JoinPath(dir_, "seg-000000.manifest"));
    ASSERT_TRUE(man.ok());
    ASSERT_TRUE(fs::WriteFileAtomic(
                    fs::JoinPath(probe, "seg-000001.manifest"),
                    man.value().span(), false)
                    .ok());
  }
  reopen_and_verify("orphan segment");

  // State B: crashed mid-column — a torn half of one column file, no
  // segment manifest.
  RemoveTree(probe);
  CopyTree(dir_, probe);
  {
    auto col = fs::ReadFile(fs::JoinPath(dir_, "seg-000000.0.col"));
    ASSERT_TRUE(col.ok());
    ASSERT_TRUE(fs::WriteFileAtomic(
                    fs::JoinPath(probe, "seg-000001.0.col"),
                    ByteSpan(col.value().data(), col.value().size() / 2),
                    false)
                    .ok());
  }
  reopen_and_verify("torn orphan column");

  // State C: stale atomic-write temps from a crash inside
  // WriteFileAtomic itself.
  RemoveTree(probe);
  CopyTree(dir_, probe);
  {
    const uint8_t junk[] = {1, 2, 3};
    for (const char* name :
         {"MANIFEST.tmp", "seg-000001.0.col.tmp", "seg-000000.manifest.tmp"}) {
      ASSERT_TRUE(fs::WriteFileAtomic(fs::JoinPath(probe, name),
                                      ByteSpan(junk, 3), false)
                      .ok());
      // WriteFileAtomic writes name.tmp then renames; the final file is
      // the stale temp we want.
    }
  }
  reopen_and_verify("stale temps");
}

TEST_F(LsmEngineTest, RecoveryIsIdempotent) {
  {
    auto eng = IngestEngine::Open(dir_, Schema(), FastOptions());
    ASSERT_TRUE(eng.ok());
    ASSERT_TRUE(AppendRows(*eng.value(), 0, 64, 8).ok());
    ASSERT_TRUE(eng.value()->Flush().ok());
    ASSERT_TRUE(AppendRows(*eng.value(), 64, 90, 8).ok());
  }
  // Tear the WAL tail so recovery has real work to do.
  const std::string wal_path =
      fs::JoinPath(dir_, Wal::SegmentFileName(1));
  auto file = fs::ReadFile(wal_path);
  ASSERT_TRUE(file.ok());
  ASSERT_GT(file.value().size(), 10u);
  ASSERT_TRUE(fs::WriteFileAtomic(
                  wal_path,
                  ByteSpan(file.value().data(), file.value().size() - 7),
                  false)
                  .ok());

  auto fingerprint = [&]() {
    auto eng = IngestEngine::Open(dir_, Schema(), FastOptions());
    EXPECT_TRUE(eng.ok());
    std::vector<double> fp;
    fp.push_back(static_cast<double>(eng.value()->rows()));
    for (const auto& s : eng.value()->segments()) {
      fp.push_back(static_cast<double>(s.id));
      fp.push_back(static_cast<double>(s.rows));
      fp.push_back(static_cast<double>(s.level));
    }
    for (const char* c : {"ts", "value", "flag"}) {
      auto r = eng.value()->ReadColumn(c);
      EXPECT_TRUE(r.ok());
      fp.insert(fp.end(), r.value().begin(), r.value().end());
    }
    return fp;
  };

  auto first = fingerprint();
  auto second = fingerprint();  // recover twice => identical state
  EXPECT_EQ(first, second);
  auto third = fingerprint();
  EXPECT_EQ(first, third);
}

TEST_F(LsmEngineTest, BackgroundFlushOnWatermarkWithReadsDuringIngest) {
  EngineOptions opt;
  opt.background_flush = true;
  opt.memtable_bytes = 8 << 10;  // ~340 rows of 3 columns
  opt.compact_fanout = 0;
  opt.flush_compressor = "auto";  // exercise the online selector path
  auto eng = IngestEngine::Open(dir_, Schema(), opt);
  ASSERT_TRUE(eng.ok());
  for (uint64_t b = 0; b < 40; ++b) {
    ASSERT_TRUE(AppendRows(*eng.value(), b * 50, (b + 1) * 50, 50).ok());
    if (b % 8 == 0) {
      // Reads interleave with background flushes and stay consistent.
      auto r = eng.value()->ReadColumn("ts");
      ASSERT_TRUE(r.ok());
      EXPECT_EQ(r.value().size(), (b + 1) * 50);
    }
  }
  ASSERT_TRUE(eng.value()->WaitForFlush().ok());
  ASSERT_TRUE(eng.value()->Flush().ok());
  EXPECT_GE(eng.value()->segments().size(), 2u);
  EXPECT_EQ(eng.value()->rows(), 2000u);
  ExpectColumnsEqualPrefix(*eng.value(), 2000);

  // Flushed segments record a concrete method, never "auto".
  auto methods = ColumnStore::ListMethods(
      fs::JoinPath(dir_, "seg-000000"));
  ASSERT_TRUE(methods.ok());
  for (const auto& m : methods.value()) {
    EXPECT_NE(m.substr(0, 4), "auto") << m;
  }
}

TEST_F(LsmEngineTest, CompactionMergesSmallSegmentsAndDropsOldFiles) {
  auto opt = FastOptions();
  auto eng = IngestEngine::Open(dir_, Schema(), opt);
  ASSERT_TRUE(eng.ok());
  for (uint64_t s = 0; s < 4; ++s) {
    ASSERT_TRUE(AppendRows(*eng.value(), s * 100, (s + 1) * 100, 25).ok());
    ASSERT_TRUE(eng.value()->Flush().ok());
  }
  ASSERT_EQ(eng.value()->segments().size(), 4u);

  ASSERT_TRUE(eng.value()->Compact().ok());
  auto segs = eng.value()->segments();
  ASSERT_EQ(segs.size(), 1u);
  EXPECT_EQ(segs[0].rows, 400u);
  EXPECT_EQ(segs[0].level, 1u);
  ExpectColumnsEqualPrefix(*eng.value(), 400);

  // Old segment files are gone; the merged segment used the compaction
  // compressor.
  auto names = fs::ListDir(dir_);
  ASSERT_TRUE(names.ok());
  for (const auto& n : names.value()) {
    for (const char* old :
         {"seg-000000", "seg-000001", "seg-000002", "seg-000003"}) {
      EXPECT_EQ(n.find(old), std::string::npos) << n;
    }
  }
  auto methods = ColumnStore::ListMethods(
      fs::JoinPath(dir_, "seg-000004"));
  ASSERT_TRUE(methods.ok());
  EXPECT_EQ(methods.value()[0], "chimp128");

  // Compaction survives a crash too: reopen reads the same table.
  eng = IngestEngine::Open(dir_, Schema(), opt);
  ASSERT_TRUE(eng.ok());
  ExpectColumnsEqualPrefix(*eng.value(), 400);
}

/// Bytes of every `<prefix>.*` file in `dir`.
uint64_t FilesBytes(const std::string& dir, const std::string& prefix) {
  auto names = fs::ListDir(dir);
  EXPECT_TRUE(names.ok());
  uint64_t total = 0;
  for (const auto& n : names.value()) {
    if (n.rfind(prefix + ".", 0) != 0) continue;
    auto size = fs::FileSize(fs::JoinPath(dir, n));
    EXPECT_TRUE(size.ok()) << n;
    total += size.value();
  }
  return total;
}

TEST_F(LsmEngineTest, StatsCountSegmentBytesWithMetricsOff) {
  // The engine's own cells count whether or not the process-wide
  // registry records: flush and compaction bytes are the segments' files.
  const bool was_enabled = obs::Enabled();
  obs::SetEnabled(false);
  struct Restore {
    bool on;
    ~Restore() { obs::SetEnabled(on); }
  } restore{was_enabled};

  auto eng = IngestEngine::Open(dir_, Schema(), FastOptions());
  ASSERT_TRUE(eng.ok());
  uint64_t flushed = 0;
  for (uint64_t s = 0; s < 4; ++s) {
    ASSERT_TRUE(AppendRows(*eng.value(), s * 300, (s + 1) * 300, 50).ok());
    ASSERT_TRUE(eng.value()->Flush().ok());
    char prefix[16];
    std::snprintf(prefix, sizeof(prefix), "seg-%06llu",
                  static_cast<unsigned long long>(s));
    flushed += FilesBytes(dir_, prefix);
  }
  EngineStats st = eng.value()->stats();
  EXPECT_EQ(st.flushes, 4u);
  EXPECT_GT(flushed, 0u);
  EXPECT_EQ(st.flush_segment_bytes, flushed);

  ASSERT_TRUE(eng.value()->Compact().ok());
  st = eng.value()->stats();
  EXPECT_EQ(st.compactions, 1u);
  EXPECT_EQ(st.compact_in_bytes, flushed);
  EXPECT_GT(st.compact_out_bytes, 0u);
  EXPECT_EQ(st.compact_out_bytes, FilesBytes(dir_, "seg-000004"));
}

TEST_F(LsmEngineTest, AutoCompactionKeepsSegmentCountBounded) {
  EngineOptions opt = FastOptions();
  opt.background_flush = false;
  opt.compact_fanout = 2;
  opt.memtable_bytes = 4 << 10;
  auto eng = IngestEngine::Open(dir_, Schema(), opt);
  ASSERT_TRUE(eng.ok());
  ASSERT_TRUE(AppendRows(*eng.value(), 0, 4000, 100).ok());
  ASSERT_TRUE(eng.value()->Flush().ok());
  ASSERT_TRUE(eng.value()->WaitForFlush().ok());
  // ~20 watermark flushes happened; tiering must have merged runs.
  EXPECT_LT(eng.value()->segments().size(), 8u);
  ExpectColumnsEqualPrefix(*eng.value(), 4000);
}

TEST_F(LsmEngineTest, ManifestBitFlipsAreDetectedNotMisread) {
  {
    auto eng = IngestEngine::Open(dir_, Schema(), FastOptions());
    ASSERT_TRUE(eng.ok());
    ASSERT_TRUE(AppendRows(*eng.value(), 0, 64, 8).ok());
    ASSERT_TRUE(eng.value()->Flush().ok());
  }
  auto manifest = fs::ReadFile(fs::JoinPath(dir_, "MANIFEST"));
  ASSERT_TRUE(manifest.ok());
  const std::string probe = dir_ + "_probe";
  for (size_t flip = 0; flip < manifest.value().size(); ++flip) {
    RemoveTree(probe);
    CopyTree(dir_, probe);
    Buffer corrupt = Buffer::FromSpan(manifest.value().span());
    corrupt.data()[flip] ^= 0x04;
    ASSERT_TRUE(fs::WriteFileAtomic(fs::JoinPath(probe, "MANIFEST"),
                                    corrupt.span(), false)
                    .ok());
    auto eng = IngestEngine::Open(probe, Schema(), FastOptions());
    // The engine manifest is checksummed: any flip is detected and
    // reported — never silently misread (schema damage may also surface
    // as a mismatch error; both are clean rejections).
    EXPECT_FALSE(eng.ok()) << "flip=" << flip;
  }
}

TEST_F(LsmEngineTest, RejectsBadUsage) {
  auto eng = IngestEngine::Open(dir_, Schema(), FastOptions());
  ASSERT_TRUE(eng.ok());
  EXPECT_FALSE(eng.value()->Append({1.0, 2.0}).ok());  // ragged row
  EXPECT_FALSE(eng.value()->ReadColumn("nope").ok());
  ASSERT_TRUE(eng.value()->Append(Row(0)).ok());

  // Reopening with a different schema is refused.
  std::vector<ColumnDef> other = Schema();
  other[1].dtype = DType::kFloat32;
  auto bad = IngestEngine::Open(dir_, other, FastOptions());
  EXPECT_FALSE(bad.ok());

  // Opening with an empty schema adopts the stored one.
  eng = IngestEngine::Open(dir_, {}, FastOptions());
  ASSERT_TRUE(eng.ok());
  EXPECT_EQ(eng.value()->schema().size(), 3u);
  EXPECT_EQ(eng.value()->rows(), 1u);
}

TEST_F(LsmEngineTest, NoSyncModeStillRecoversCleanShutdown) {
  EngineOptions opt = FastOptions();
  opt.sync_on_commit = false;  // bench mode: page cache only
  {
    auto eng = IngestEngine::Open(dir_, Schema(), opt);
    ASSERT_TRUE(eng.ok());
    ASSERT_TRUE(AppendRows(*eng.value(), 0, 200, 20).ok());
  }
  auto eng = IngestEngine::Open(dir_, Schema(), opt);
  ASSERT_TRUE(eng.ok());
  EXPECT_EQ(eng.value()->rows(), 200u);
  ExpectColumnsEqualPrefix(*eng.value(), 200);
}

TEST_F(LsmEngineTest, ReaderNeverRunsQueuedFlushThatWaitsOnItsPin) {
  // Every shared-pool worker is parked, and a background flush with a
  // fanout-2 compaction is queued behind them. A ReadColumn of a
  // bitshuffle segment fans its page decode out with ParallelFor. Its
  // caller never runs a queued task, so the read completes while the
  // pool is still parked. (The name is from when compaction waited for
  // readers, and a reader running the queued flush waited on itself.)
  EngineOptions opt = FastOptions();
  opt.sync_on_commit = false;
  opt.background_flush = true;
  opt.compact_fanout = 2;
  opt.memtable_bytes = 16 << 20;  // flushes only when asked
  opt.flush_compressor = "bitshuffle_lz4";
  auto eng = IngestEngine::Open(dir_, Schema(), opt);
  ASSERT_TRUE(eng.ok()) << eng.status().ToString();
  constexpr uint64_t kSegRows = 49152;  // 6 pages of f64
  constexpr uint64_t kRows = kSegRows + 4096;
  ASSERT_TRUE(AppendRows(*eng.value(), 0, kSegRows, 1024).ok());
  ASSERT_TRUE(eng.value()->Flush().ok());  // inline: segment 0
  ASSERT_TRUE(AppendRows(*eng.value(), kSegRows, kRows, 1024).ok());

  ThreadPool& pool = ThreadPool::Shared();
  // Shared with the parked tasks: a released worker may still be
  // returning from its wait after this test body has returned.
  struct Parking {
    std::mutex mu;
    std::condition_variable cv;
    size_t parked = 0;
    bool release = false;
  };
  auto park = std::make_shared<Parking>();
  for (size_t w = 0; w < pool.num_threads(); ++w) {
    pool.Submit([park] {
      std::unique_lock<std::mutex> lock(park->mu);
      ++park->parked;
      park->cv.notify_all();
      park->cv.wait(lock, [&] { return park->release; });
    });
  }
  {
    std::unique_lock<std::mutex> lock(park->mu);
    park->cv.wait(lock, [&] { return park->parked == pool.num_threads(); });
  }
  auto release_workers = [&] {
    {
      std::lock_guard<std::mutex> lock(park->mu);
      park->release = true;
    }
    park->cv.notify_all();
  };
  ASSERT_TRUE(eng.value()->ScheduleFlush().ok());  // queued behind them

  auto read = std::async(std::launch::async,
                         [&] { return eng.value()->ReadColumn("value"); });
  const bool done_while_parked =
      read.wait_for(std::chrono::seconds(30)) == std::future_status::ready;
  release_workers();
  if (!done_while_parked &&
      read.wait_for(std::chrono::seconds(10)) != std::future_status::ready) {
    // The reader is wedged for good; tearing the engine down would hang
    // too, so fail loudly instead of waiting for the test timeout.
    std::fprintf(stderr,
                 "ReadColumn still blocked 10 s after the pool was freed\n");
    std::abort();
  }
  EXPECT_TRUE(done_while_parked)
      << "ReadColumn waited on the pool's queue";
  auto r = read.get();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value(), ExpectedColumn(1, kRows));

  ASSERT_TRUE(eng.value()->WaitForFlush().ok());
  EXPECT_EQ(eng.value()->segments().size(), 1u) << "the flush compacted";
  ExpectColumnsEqualPrefix(*eng.value(), kRows);
}

/// Files in `dir` that belong to segment `id`.
std::vector<std::string> SegmentFiles(const std::string& dir, uint64_t id) {
  char prefix[32];
  std::snprintf(prefix, sizeof(prefix), "seg-%06llu.",
                static_cast<unsigned long long>(id));
  std::vector<std::string> out;
  auto names = fs::ListDir(dir);
  if (!names.ok()) return out;
  for (const auto& n : names.value()) {
    if (n.rfind(prefix, 0) == 0) out.push_back(n);
  }
  return out;
}

/// Flips one bit in the middle of the file at `path`.
void FlipMiddleBit(const std::string& path) {
  auto bytes = fs::ReadFile(path);
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  Buffer flipped = std::move(bytes).TakeValue();
  flipped.data()[flipped.size() / 2] ^= 0x01;
  ASSERT_TRUE(
      fs::WriteFileAtomic(path, flipped.span(), /*durable=*/false).ok());
}

/// True when `rep` notes that segment `id`'s quarantine move is pending.
bool HasMovePendingNote(const ScrubReport& rep, uint64_t id) {
  const std::string note =
      "quarantine move pending: segment " + std::to_string(id) + " ";
  return std::any_of(
      rep.notes.begin(), rep.notes.end(),
      [&](const std::string& n) { return n.rfind(note, 0) == 0; });
}

/// Four threads calling ReadColumn("value") back to back until the
/// object goes out of scope; a failed read or a result not in `allowed`
/// counts as bad.
class BackToBackReaders {
 public:
  BackToBackReaders(const IngestEngine& eng,
                    std::vector<std::vector<double>> allowed)
      : allowed_(std::move(allowed)) {
    for (int t = 0; t < 4; ++t) {
      threads_.emplace_back([this, &eng] {
        while (!stop_) {
          auto r = eng.ReadColumn("value");
          if (!r.ok() || std::find(allowed_.begin(), allowed_.end(),
                                   r.value()) == allowed_.end()) {
            ++bad_;
          }
          ++reads_;
        }
      });
    }
    // Every reader is in its loop before the caller goes on.
    while (reads_ < 8) std::this_thread::yield();
  }
  ~BackToBackReaders() { Stop(); }

  /// Stops and joins the readers; returns the number of bad reads.
  uint64_t Stop() {
    stop_ = true;
    for (auto& t : threads_) {
      if (t.joinable()) t.join();
    }
    return bad_;
  }

 private:
  const std::vector<std::vector<double>> allowed_;
  std::atomic<bool> stop_{false};
  std::atomic<uint64_t> reads_{0};
  std::atomic<uint64_t> bad_{0};
  std::vector<std::thread> threads_;
};

TEST_F(LsmEngineTest, CompactionCompletesUnderBackToBackReaders) {
  // The readers' captured segment handles keep the run's files alive,
  // so compaction neither waits for them nor deletes files under them:
  // the last reader to let go of the run deletes its files.
  std::unique_ptr<IngestEngine> eng;
  ASSERT_NO_FATAL_FAILURE(OpenWithTwoSlowSegments(&eng));

  BackToBackReaders readers(*eng, {ExpectedColumn(1, 2 * kReadSegRows)});
  const auto start = std::chrono::steady_clock::now();
  const Status st = eng->Compact();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(readers.Stop(), 0u);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_LT(elapsed, std::chrono::seconds(2));

  ASSERT_EQ(eng->segments().size(), 1u);
  EXPECT_TRUE(SegmentFiles(dir_, 0).empty());
  EXPECT_TRUE(SegmentFiles(dir_, 1).empty());
  ExpectColumnsEqualPrefix(*eng, 2 * kReadSegRows);
}

TEST_F(LsmEngineTest, ScrubCompletesUnderBackToBackReaders) {
  // Segment 1's "ts" column file is bit-flipped; the readers read only
  // "value". Scrub quarantines segment 1 without waiting for them, and
  // the last reader to let go of it moves its files to quarantine/.
  std::unique_ptr<IngestEngine> eng;
  ASSERT_NO_FATAL_FAILURE(OpenWithTwoSlowSegments(&eng));
  FlipMiddleBit(fs::JoinPath(dir_, "seg-000001.0.col"));

  // Before the quarantine a read sees both segments, after it only the
  // first.
  BackToBackReaders readers(*eng, {ExpectedColumn(1, 2 * kReadSegRows),
                                   ExpectedColumn(1, kReadSegRows)});
  const auto start = std::chrono::steady_clock::now();
  auto rep = eng->Scrub();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  const bool files_left = !SegmentFiles(dir_, 1).empty();
  EXPECT_EQ(readers.Stop(), 0u);
  ASSERT_TRUE(rep.ok()) << rep.status().ToString();
  EXPECT_LT(elapsed, std::chrono::seconds(2));
  EXPECT_EQ(rep.value().quarantined_ids, std::vector<uint64_t>{1});
  if (files_left) {
    EXPECT_TRUE(HasMovePendingNote(rep.value(), 1));
  }

  EXPECT_TRUE(SegmentFiles(dir_, 1).empty());
  EXPECT_FALSE(SegmentFiles(fs::JoinPath(dir_, "quarantine"), 1).empty());
  auto v = eng->ReadColumn("value");
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_EQ(v.value(), ExpectedColumn(1, kReadSegRows));
}

TEST_F(LsmEngineTest, CompactionPublishesOnlyIfItsWholeRunIsStillServed) {
  // Compaction of [A, B] waits out a retry backoff off-lock while a
  // scrub quarantines B. Its publish must then find the run changed and
  // give up: locating the run by its first segment alone would replace
  // [A, D] with the merged [A, B], losing D's rows and serving B's
  // quarantined rows again.
  EngineOptions opt = FastOptions();
  opt.memtable_bytes = 4 << 10;  // small = 4 memtables = 680 rows
  opt.io_retry_backoff_ms = 300;
  constexpr uint64_t kA = 100, kB = 200, kD = 1200;  // end rows
  // Every acknowledged row except B's (when the scrub won the race), in
  // order.
  auto expect_rows_except_b = [&](const IngestEngine& e) {
    const bool b_quarantined = e.quarantined().size() == 1;
    const char* names[] = {"ts", "value", "flag"};
    for (size_t c = 0; c < 3; ++c) {
      std::vector<double> want;
      const std::vector<double> all = ExpectedColumn(c, kD);
      for (uint64_t i = 0; i < kD; ++i) {
        if (!b_quarantined || i < kA || i >= kB) want.push_back(all[i]);
      }
      auto r = e.ReadColumn(names[c]);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_EQ(r.value(), want) << names[c];
    }
  };
  {
    auto eng = IngestEngine::Open(dir_, Schema(), opt);
    ASSERT_TRUE(eng.ok()) << eng.status().ToString();
    IngestEngine& e = *eng.value();
    ASSERT_TRUE(AppendRows(e, 0, kA, 100).ok());
    ASSERT_TRUE(e.Flush().ok());
    ASSERT_TRUE(AppendRows(e, kA, kB, 100).ok());
    ASSERT_TRUE(e.Flush().ok());
    // One batch over the watermark: flushed inline as one segment.
    ASSERT_TRUE(AppendRows(e, kB, kD, kD - kB).ok());
    ASSERT_EQ(e.segments().size(), 3u);
    ASSERT_EQ(e.segments()[2].rows, kD - kB);

    ASSERT_TRUE(fail::FailPoints::Set("lsm.compact", "err@1").ok());
    auto compaction = std::async(std::launch::async,
                                 [&e] { return e.Compact(); });
    // The failed first write counts a retry just before its backoff.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (e.stats().retry_attempts == 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    FlipMiddleBit(fs::JoinPath(dir_, "seg-000001.0.col"));
    auto rep = e.Scrub();
    // Files only ever leave the engine dir, so B's files still here now
    // were here when Scrub returned.
    const bool b_files_left = !SegmentFiles(dir_, 1).empty();
    const Status compacted = compaction.get();
    fail::FailPoints::ClearAll();
    ASSERT_TRUE(rep.ok()) << rep.status().ToString();
    if (!rep.value().quarantined_ids.empty()) {
      EXPECT_EQ(rep.value().quarantined_ids, std::vector<uint64_t>{1});
      EXPECT_FALSE(compacted.ok()) << "merged a run that lost a segment";
      if (b_files_left) {
        EXPECT_TRUE(HasMovePendingNote(rep.value(), 1));
      }
      // The compaction held B last; its release moved the files.
      EXPECT_TRUE(SegmentFiles(dir_, 1).empty());
      EXPECT_FALSE(
          SegmentFiles(fs::JoinPath(dir_, "quarantine"), 1).empty());
    }
    expect_rows_except_b(e);
  }
  auto eng = IngestEngine::Open(dir_, Schema(), opt);
  ASSERT_TRUE(eng.ok()) << eng.status().ToString();
  expect_rows_except_b(*eng.value());
}

/// Column `col` of `eng` read from outside the engine: every segment
/// through ColumnStore::ReadRows, in order, then `table` (the column's
/// expected values) from row `mem_begin` on, for the memtables.
std::vector<double> OracleColumn(const IngestEngine& eng, size_t col,
                                 uint64_t mem_begin,
                                 const std::vector<double>& table) {
  const char* names[] = {"ts", "value", "flag"};
  std::vector<double> out;
  for (const SegmentInfo& s : eng.segments()) {
    char name[32];
    std::snprintf(name, sizeof(name), "seg-%06llu",
                  static_cast<unsigned long long>(s.id));
    auto rows = ColumnStore::ReadRows(fs::JoinPath(eng.dir(), name),
                                      names[col], 0, s.rows);
    EXPECT_TRUE(rows.ok()) << rows.status().ToString();
    if (rows.ok()) {
      out.insert(out.end(), rows.value().begin(), rows.value().end());
    }
  }
  out.insert(out.end(), table.begin() + mem_begin, table.end());
  return out;
}

TEST_F(LsmEngineTest, PageTasksMatchPerSegmentReadsAndBothMemtables) {
  // 4 KiB pages hold 512 f64 or 1024 f32 rows, and no segment is a page
  // multiple: a compacted one of 3400 rows and flushed ones of 777 and
  // 1031. Rows also sit in the immutable memtable (its flush held in a
  // retry backoff) and in the live one. ReadColumn from the test thread
  // (pages fanned out on the pool) and from inside a pool task (inline,
  // the path a compaction takes) must both equal every segment's
  // ColumnStore::ReadRows followed by the memtable rows.
  EngineOptions opt = FastOptions();
  opt.page_size = 4096;
  opt.background_flush = true;
  opt.memtable_bytes = 16 << 20;  // flushes only when asked
  opt.io_retry_backoff_ms = 60000;
  auto opened = IngestEngine::Open(dir_, Schema(), opt);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  IngestEngine& eng = *opened.value();
  uint64_t begin = 0;
  for (uint64_t end : {1300, 3400, 4177, 5208}) {
    ASSERT_TRUE(AppendRows(eng, begin, end, 100).ok());
    ASSERT_TRUE(eng.Flush().ok());
    if (end == 3400) {
      ASSERT_TRUE(eng.Compact().ok());
    }
    begin = end;
  }
  ASSERT_EQ(eng.segments().size(), 3u);
  EXPECT_EQ(eng.segments()[0].level, 1u);
  constexpr uint64_t kSegRows = 5208, kImmEnd = 5808, kRows = 6141;
  ASSERT_TRUE(AppendRows(eng, kSegRows, kImmEnd, 100).ok());
  // The flush's first write fails and its retry waits out a 60 s
  // backoff, so its memtable stays immutable and readable meanwhile.
  ASSERT_TRUE(fail::FailPoints::Set("lsm.flush", "err@1").ok());
  ASSERT_TRUE(eng.ScheduleFlush().ok());
  ASSERT_TRUE(AppendRows(eng, kImmEnd, kRows, 100).ok());
  ASSERT_EQ(eng.rows(), kRows);

  const char* names[] = {"ts", "value", "flag"};
  for (size_t c = 0; c < 3; ++c) {
    const std::vector<double> table = ExpectedColumn(c, kRows);
    const std::vector<double> oracle = OracleColumn(eng, c, kSegRows, table);
    ASSERT_EQ(oracle, table) << names[c];
    auto direct = eng.ReadColumn(names[c]);
    ASSERT_TRUE(direct.ok()) << direct.status().ToString();
    EXPECT_EQ(direct.value(), oracle) << names[c];

    std::promise<Result<std::vector<double>>> in_task;
    ThreadPool::Shared().Submit(
        [&] { in_task.set_value(eng.ReadColumn(names[c])); });
    auto inline_read = in_task.get_future().get();
    ASSERT_TRUE(inline_read.ok()) << inline_read.status().ToString();
    EXPECT_EQ(inline_read.value(), oracle) << names[c] << " in a pool task";
  }
  // Give the held flush up; its rows stay WAL-backed.
  eng.InterruptRetries();
  EXPECT_FALSE(eng.WaitForFlush().ok());
  fail::FailPoints::ClearAll();
  ExpectColumnsEqualPrefix(eng, kRows);
}

TEST_F(LsmEngineTest, RacingFirstReadsOfAColumnBothGetExactValues) {
  // Two readers released together race to open every segment's column
  // (the slot's first open). Both may open; one publishes, and both must
  // read the exact column. Runs in the TSan lane.
  auto opened = IngestEngine::Open(dir_, Schema(), FastOptions());
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  IngestEngine& eng = *opened.value();
  for (uint64_t s = 0; s < 4; ++s) {
    ASSERT_TRUE(AppendRows(eng, s * 700, (s + 1) * 700, 100).ok());
    ASSERT_TRUE(eng.Flush().ok());
  }
  const char* names[] = {"ts", "value", "flag"};
  for (size_t c = 0; c < 3; ++c) {
    std::atomic<bool> go{false};
    std::vector<Result<std::vector<double>>> got(2, Status::Internal("unread"));
    std::vector<std::thread> readers;
    for (size_t r = 0; r < got.size(); ++r) {
      readers.emplace_back([&, r] {
        while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
        got[r] = eng.ReadColumn(names[c]);
      });
    }
    go.store(true, std::memory_order_release);
    for (auto& t : readers) t.join();
    const std::vector<double> want = ExpectedColumn(c, 2800);
    for (size_t r = 0; r < got.size(); ++r) {
      ASSERT_TRUE(got[r].ok()) << names[c] << ": "
                               << got[r].status().ToString();
      EXPECT_EQ(got[r].value(), want) << names[c] << " reader " << r;
    }
  }
}

TEST_F(LsmEngineTest, CompactionMergesFromOpenColumnsAndDropsFilesAtLastRelease) {
  // Reads open every column of four segments. A compaction then merges
  // through those open columns without reading a file again, and the
  // retired segments' files stay until the last reader holding them
  // lets go; that reader still gets the exact rows.
  auto opened = IngestEngine::Open(dir_, Schema(), FastOptions());
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  IngestEngine& eng = *opened.value();
  for (uint64_t s = 0; s < 4; ++s) {
    ASSERT_TRUE(AppendRows(eng, s * 300, (s + 1) * 300, 50).ok());
    ASSERT_TRUE(eng.Flush().ok());
  }
  ExpectColumnsEqualPrefix(eng, 1200);

  {
    ColumnReadBatch held;
    auto out = eng.AddColumnRead("value", &held);
    ASSERT_TRUE(out.ok()) << out.status().ToString();

    fail::FailPoints::EnableCounting(true);
    fail::FailPoints::ResetCounters();
    const Status compacted = eng.Compact();
    const uint64_t file_reads = fail::FailPoints::HitCount("fs.read");
    fail::FailPoints::EnableCounting(false);
    fail::FailPoints::ResetCounters();
    ASSERT_TRUE(compacted.ok()) << compacted.ToString();
    EXPECT_EQ(file_reads, 0u) << "compaction reopened an open column";
    ASSERT_EQ(eng.segments().size(), 1u);
    EXPECT_EQ(eng.segments()[0].rows, 1200u);
    ExpectColumnsEqualPrefix(eng, 1200);

    for (uint64_t id = 0; id < 4; ++id) {
      EXPECT_FALSE(SegmentFiles(dir_, id).empty())
          << "segment " << id << " dropped while a reader holds it";
    }
    const std::vector<Status> read = held.Run();
    ASSERT_TRUE(read[out.value()].ok()) << read[out.value()].ToString();
    EXPECT_EQ(held.output(out.value()), ExpectedColumn(1, 1200));
  }
  for (uint64_t id = 0; id < 4; ++id) {
    EXPECT_TRUE(SegmentFiles(dir_, id).empty())
        << "segment " << id << " outlived its last reader";
  }
  ExpectColumnsEqualPrefix(eng, 1200);
}

}  // namespace
}  // namespace fcbench::db::lsm

// Crash-recovery tests for the LSM engine's durable WAL (fault lane):
// a live durable segment ends in a zero tail, every crash therefore
// leaves one, and Open must seal the recovered prefix so that a second
// crash still recovers every row acknowledged after the first.
//
// A "crash" here is a copy of the engine directory taken while the
// engine is still open: every acked commit has been synced, so the copy
// holds exactly what the disk would after power loss at that point.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "db/lsm/lsm_engine.h"
#include "db/lsm/wal.h"
#include "lsm_test_util.h"
#include "util/fs.h"

namespace fcbench::db::lsm {
namespace {

/// Rows per AppendBatch in these tests (one WAL record each).
constexpr uint64_t kBatch = 4;

uint64_t RowsAfterOpen(const std::string& dir,
                       const EngineOptions& options) {
  auto eng = IngestEngine::Open(dir, {}, options);
  EXPECT_TRUE(eng.ok()) << eng.status().ToString();
  return eng.ok() ? eng.value()->rows() : 0;
}

TEST_F(LsmEngineTest, AckedRowsSurviveASecondCrashAfterTornTail) {
  {
    auto eng = IngestEngine::Open(dir_, Schema(), FastOptions());
    ASSERT_TRUE(eng.ok());
    ASSERT_TRUE(AppendRows(*eng.value(), 0, 10 * kBatch, kBatch).ok());
  }
  // The first crash tore the last record of segment 0.
  const std::string seg0 = fs::JoinPath(dir_, Wal::SegmentFileName(0));
  auto bytes = fs::ReadFile(seg0);
  ASSERT_TRUE(bytes.ok());
  ASSERT_TRUE(fs::WriteFileAtomic(
                  seg0, bytes.value().span().first(bytes.value().size() - 5),
                  /*durable=*/false)
                  .ok());

  const std::string crashed = dir_ + "_probe";
  {
    auto eng = IngestEngine::Open(dir_, Schema(), FastOptions());
    ASSERT_TRUE(eng.ok()) << eng.status().ToString();
    ASSERT_EQ(eng.value()->rows(), 9 * kBatch);
    // Five more acked batches, then the second crash.
    ASSERT_TRUE(
        AppendRows(*eng.value(), 9 * kBatch, 14 * kBatch, kBatch).ok());
    CopyTree(dir_, crashed);
  }
  auto eng = IngestEngine::Open(crashed, Schema(), FastOptions());
  ASSERT_TRUE(eng.ok()) << eng.status().ToString();
  EXPECT_EQ(eng.value()->rows(), 14 * kBatch);
  ExpectColumnsEqualPrefix(*eng.value(), 14 * kBatch);
}

TEST_F(LsmEngineTest, KillAtAnyByteOfZeroPaddedWalRecoversAPrefix) {
  constexpr uint64_t kBatches = 5;
  {
    auto eng = IngestEngine::Open(dir_, Schema(), FastOptions());
    ASSERT_TRUE(eng.ok());
    ASSERT_TRUE(AppendRows(*eng.value(), 0, kBatch * kBatches, kBatch).ok());
  }
  auto file = fs::ReadFile(fs::JoinPath(dir_, Wal::SegmentFileName(0)));
  ASSERT_TRUE(file.ok());
  auto full = WalReader::ReplayDir(dir_, 0);
  ASSERT_TRUE(full.ok());
  ASSERT_EQ(full.value().records.size(), kBatches);
  std::vector<size_t> ends;  // byte end of each record
  for (const WalRecord& rec : full.value().records) {
    ends.push_back(rec.offset + 8 + 4 + 1 + rec.payload.size());
  }
  const std::string probe = dir_ + "_probe";

  // The crash left `image` followed by zeros up to the zero-tail boundary.
  auto check = [&](ByteSpan image, size_t whole_records, size_t detail) {
    RemoveTree(probe);
    CopyTree(dir_, probe);
    std::vector<uint8_t> padded(fs::AppendFile::kZeroTailBytes, 0);
    std::copy(image.begin(), image.end(), padded.begin());
    ASSERT_TRUE(fs::WriteFileAtomic(
                    fs::JoinPath(probe, Wal::SegmentFileName(0)),
                    ByteSpan(padded.data(), padded.size()),
                    /*durable=*/false)
                    .ok());
    uint64_t rows = 0;
    {
      auto eng = IngestEngine::Open(probe, Schema(), FastOptions());
      ASSERT_TRUE(eng.ok()) << "at byte " << detail << ": "
                            << eng.status().ToString();
      rows = eng.value()->rows();
      // Whole batches only, an exact prefix, and every record that lies
      // entirely before the damage survives.
      ASSERT_EQ(rows % kBatch, 0u) << "at byte " << detail;
      ASSERT_LE(rows, kBatch * kBatches) << "at byte " << detail;
      ASSERT_GE(rows, kBatch * whole_records) << "at byte " << detail;
      ExpectColumnsEqualPrefix(*eng.value(), rows);
      // Acked after recovery, then a second crash (the copy): the sealed
      // prefix plus the new batch both come back.
      ASSERT_TRUE(AppendRows(*eng.value(), rows, rows + kBatch, kBatch).ok());
      RemoveTree(probe + "2");
      CopyTree(probe, probe + "2");
    }
    EXPECT_EQ(RowsAfterOpen(probe + "2", FastOptions()), rows + kBatch)
        << "at byte " << detail;
    RemoveTree(probe + "2");
  };

  const ByteSpan bytes = file.value().span();
  for (size_t cut = 0; cut <= bytes.size(); ++cut) {
    size_t whole = 0;
    while (whole < ends.size() && ends[whole] <= cut) ++whole;
    ASSERT_NO_FATAL_FAILURE(check(bytes.first(cut), whole, cut));
  }
  for (size_t flip = 0; flip < bytes.size(); ++flip) {
    Buffer corrupt = Buffer::FromSpan(bytes);
    corrupt.data()[flip] ^= 0x10;
    size_t whole = 0;
    while (whole < ends.size() && ends[whole] <= flip) ++whole;
    if (flip < 6) whole = 0;  // a bad header drops the whole segment
    ASSERT_NO_FATAL_FAILURE(check(corrupt.span(), whole, flip));
  }
}

TEST_F(LsmEngineTest, ScrubFindsALivePreallocatedWalClean) {
  auto eng = IngestEngine::Open(dir_, Schema(), FastOptions());
  ASSERT_TRUE(eng.ok());
  ASSERT_TRUE(AppendRows(*eng.value(), 0, 5 * kBatch, kBatch).ok());
  auto size = fs::FileSize(fs::JoinPath(dir_, Wal::SegmentFileName(0)));
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(size.value(), fs::AppendFile::kZeroTailBytes);  // live tail
  auto report = eng.value()->Scrub();
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report.value().wal_clean);
  EXPECT_EQ(report.value().wal_records_verified, 5u);
}

TEST_F(LsmEngineTest, OpenSealsAtASegmentGapAndQuarantinesWhatFollows) {
  EngineOptions opt = FastOptions();
  opt.wal_segment_bytes = 64;  // one record per segment
  {
    auto eng = IngestEngine::Open(dir_, Schema(), opt);
    ASSERT_TRUE(eng.ok());
    ASSERT_TRUE(AppendRows(*eng.value(), 0, 5 * kBatch, kBatch).ok());
  }
  // Segment 2 is lost: the prefix ends with segment 1.
  ASSERT_TRUE(
      fs::RemoveFile(fs::JoinPath(dir_, Wal::SegmentFileName(2))).ok());
  {
    auto eng = IngestEngine::Open(dir_, Schema(), opt);
    ASSERT_TRUE(eng.ok()) << eng.status().ToString();
    ASSERT_EQ(eng.value()->rows(), 2 * kBatch);
    // Segments past the gap hold only discarded records: moved aside,
    // kept as evidence, never replayed after the rows acked from now on.
    EXPECT_FALSE(fs::FileExists(fs::JoinPath(dir_, Wal::SegmentFileName(3))));
    EXPECT_TRUE(fs::FileExists(
        fs::JoinPath(dir_, "quarantine/" + Wal::SegmentFileName(3))));
    ASSERT_TRUE(
        AppendRows(*eng.value(), 2 * kBatch, 3 * kBatch, kBatch).ok());
  }
  auto eng = IngestEngine::Open(dir_, Schema(), opt);
  ASSERT_TRUE(eng.ok()) << eng.status().ToString();
  EXPECT_EQ(eng.value()->rows(), 3 * kBatch);
  ExpectColumnsEqualPrefix(*eng.value(), 3 * kBatch);
}

}  // namespace
}  // namespace fcbench::db::lsm

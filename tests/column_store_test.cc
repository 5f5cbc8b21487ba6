// Tests for the multi-column store (src/db/column_store.h): per-column
// compression method choice, projection pushdown, manifest integrity.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "db/column_store.h"
#include "db/query.h"
#include "util/failpoint.h"
#include "util/fs.h"
#include "util/rng.h"

namespace fcbench::db {
namespace {

class ColumnStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    prefix_ = "/tmp/fcbench_colstore_" + std::to_string(::getpid()) + "_" +
              ::testing::UnitTest::GetInstance()->current_test_info()->name();
  }
  void TearDown() override { ColumnStore::Drop(prefix_); }

  std::vector<ColumnStore::ColumnSpec> MakeTable(size_t rows) {
    Rng rng(11);
    ColumnStore::ColumnSpec drift{
        .name = "temperature", .compressor = "gorilla",
        .dtype = DType::kFloat64};
    ColumnStore::ColumnSpec noisy{
        .name = "vibration", .compressor = "bitshuffle_zstd",
        .dtype = DType::kFloat32};
    ColumnStore::ColumnSpec ids{
        .name = "sensor_id", .compressor = "none",
        .dtype = DType::kFloat64};
    double level = 20.0;
    for (size_t r = 0; r < rows; ++r) {
      level += rng.Normal() * 0.01;
      drift.values.push_back(std::round(level * 1000.0) / 1000.0);
      noisy.values.push_back(
          static_cast<float>(rng.Normal()));  // f32-representable
      ids.values.push_back(static_cast<double>(r % 16));
    }
    return {drift, noisy, ids};
  }

  std::string prefix_;
};

TEST_F(ColumnStoreTest, WriteIsAtomicAndLeavesNoTempFiles) {
  auto cols = MakeTable(500);
  ASSERT_TRUE(ColumnStore::Write(prefix_, cols).ok());
  // Overwriting an existing store goes through the same temp+rename
  // publish and must land fully (old table or new, never torn).
  for (auto& c : cols) c.values.resize(200);
  ASSERT_TRUE(ColumnStore::Write(prefix_, cols).ok());
  auto df = ColumnStore::Read(prefix_, {});
  ASSERT_TRUE(df.ok());
  EXPECT_EQ(df.value().num_rows(), 200u);
  // No in-flight temp files survive a successful publish.
  const std::string base =
      prefix_.substr(prefix_.find_last_of('/') + 1);
  auto names = fs::ListDir(fs::DirOf(prefix_));
  ASSERT_TRUE(names.ok());
  for (const auto& n : names.value()) {
    if (n.compare(0, base.size(), base) == 0) {
      EXPECT_FALSE(fs::IsTempPath(n)) << n;
    }
  }
}

TEST_F(ColumnStoreTest, WriteReadRoundTrip) {
  auto cols = MakeTable(5000);
  ASSERT_TRUE(ColumnStore::Write(prefix_, cols).ok());

  auto names = ColumnStore::ListColumns(prefix_);
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(names.value(),
            (std::vector<std::string>{"temperature", "vibration",
                                      "sensor_id"}));

  auto df = ColumnStore::Read(prefix_);
  ASSERT_TRUE(df.ok()) << df.status().ToString();
  ASSERT_EQ(df.value().num_columns(), 3u);
  ASSERT_EQ(df.value().num_rows(), 5000u);
  for (size_t c = 0; c < 3; ++c) {
    for (size_t r = 0; r < 5000; r += 97) {
      EXPECT_DOUBLE_EQ(df.value().column(c)[r], cols[c].values[r])
          << "col " << c << " row " << r;
    }
  }
}

TEST_F(ColumnStoreTest, ProjectionReadsOnlyRequestedColumns) {
  auto cols = MakeTable(2000);
  ASSERT_TRUE(ColumnStore::Write(prefix_, cols).ok());

  ColumnStore::ReadStats all_stats, one_stats;
  auto all = ColumnStore::Read(prefix_, {}, &all_stats);
  auto one = ColumnStore::Read(prefix_, {"temperature"}, &one_stats);
  ASSERT_TRUE(all.ok());
  ASSERT_TRUE(one.ok());
  EXPECT_EQ(one.value().num_columns(), 1u);
  EXPECT_EQ(one.value().column_name(0), "temperature");
  // Projection pushdown: reading one column touches strictly fewer disk
  // bytes than reading all three.
  EXPECT_LT(one_stats.bytes_on_disk, all_stats.bytes_on_disk);
  EXPECT_LT(one_stats.bytes_decoded, all_stats.bytes_decoded);
}

TEST_F(ColumnStoreTest, ColumnOrderFollowsRequest) {
  auto cols = MakeTable(100);
  ASSERT_TRUE(ColumnStore::Write(prefix_, cols).ok());
  auto df = ColumnStore::Read(prefix_, {"sensor_id", "temperature"});
  ASSERT_TRUE(df.ok());
  EXPECT_EQ(df.value().column_name(0), "sensor_id");
  EXPECT_EQ(df.value().column_name(1), "temperature");
}

TEST_F(ColumnStoreTest, UnknownColumnRejected) {
  auto cols = MakeTable(100);
  ASSERT_TRUE(ColumnStore::Write(prefix_, cols).ok());
  auto df = ColumnStore::Read(prefix_, {"no_such_column"});
  EXPECT_FALSE(df.ok());
  EXPECT_EQ(df.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ColumnStoreTest, QueriesRunOnProjectedFrame) {
  auto cols = MakeTable(3000);
  ASSERT_TRUE(ColumnStore::Write(prefix_, cols).ok());
  auto df = ColumnStore::Read(prefix_, {"sensor_id"});
  ASSERT_TRUE(df.ok());
  auto sel = Filter(df.value(), ScanPredicate{.column = 0,
                                              .op = CompareOp::kEq,
                                              .value = 3.0});
  ASSERT_TRUE(sel.ok());
  // 3000 rows, ids cycle mod 16 -> ids 0..7 appear 188 times, 8..15 187.
  EXPECT_EQ(sel.value().size(), 188u);
}

TEST_F(ColumnStoreTest, ReadRowsMatchesFullReadEverywhere) {
  // Small pages so row ranges span page boundaries; "par-gorilla" routes
  // one column through the chunked container inside the paged file.
  auto cols = MakeTable(5000);
  cols[0].compressor = "par-gorilla";
  ASSERT_TRUE(ColumnStore::Write(prefix_, cols, /*page_size=*/4096).ok());

  auto df = ColumnStore::Read(prefix_);
  ASSERT_TRUE(df.ok());

  // 4096-byte pages of f64 = 512 rows/page: cover within-page, cross-page,
  // exactly-on-boundary, first, last-partial, single-row, and empty.
  struct Range {
    uint64_t begin, count;
  };
  for (const auto& [begin, count] :
       {Range{0, 10}, Range{500, 24}, Range{512, 512}, Range{511, 2},
        Range{4990, 10}, Range{4999, 1}, Range{777, 0}}) {
    for (size_t c = 0; c < cols.size(); ++c) {
      auto rows = ColumnStore::ReadRows(prefix_, cols[c].name, begin, count);
      ASSERT_TRUE(rows.ok()) << cols[c].name << " [" << begin << ", +"
                             << count << "): " << rows.status().ToString();
      ASSERT_EQ(rows.value().size(), count);
      for (uint64_t r = 0; r < count; ++r) {
        EXPECT_DOUBLE_EQ(rows.value()[r], df.value().column(c)[begin + r])
            << cols[c].name << " row " << begin + r;
      }
    }
  }
}

TEST_F(ColumnStoreTest, ReadRowsPushdownDecodesOnlyTouchedPages) {
  auto cols = MakeTable(5000);
  ASSERT_TRUE(ColumnStore::Write(prefix_, cols, /*page_size=*/4096).ok());

  // A point read touches one 512-row page, not the whole 5000-row column;
  // bytes_decoded must reflect the honest page cost — more than the 8
  // returned bytes, far less than the column.
  ColumnStore::ReadStats stats;
  auto one = ColumnStore::ReadRows(prefix_, "temperature", 1234, 1, &stats);
  ASSERT_TRUE(one.ok());
  EXPECT_GE(stats.bytes_decoded, 4096u);
  EXPECT_LE(stats.bytes_decoded, 2 * 4096u);
}

TEST_F(ColumnStoreTest, ReadRowsMatchesFullReadBitForBit) {
  // 4096-byte pages hold 512 f64 rows or 1024 f32 rows, so the ranges
  // below start page-aligned for both dtypes (0, 1024), aligned for f64
  // only (512), and unaligned for both (777, 4090).
  auto cols = MakeTable(5000);
  ASSERT_TRUE(ColumnStore::Write(prefix_, cols, /*page_size=*/4096).ok());
  auto df = ColumnStore::Read(prefix_);
  ASSERT_TRUE(df.ok());
  ASSERT_EQ(cols[0].dtype, DType::kFloat64);
  ASSERT_EQ(cols[1].dtype, DType::kFloat32);

  struct Range {
    uint64_t begin, count;
  };
  for (const auto& [begin, count] :
       {Range{0, 5000}, Range{1024, 2048}, Range{512, 1000}, Range{777, 300},
        Range{4090, 10}, Range{0, 1}}) {
    for (size_t c = 0; c < cols.size(); ++c) {
      const double* want = df.value().column(c).data() + begin;
      auto rows = ColumnStore::ReadRows(prefix_, cols[c].name, begin, count);
      ASSERT_TRUE(rows.ok()) << rows.status().ToString();
      ASSERT_EQ(rows.value().size(), count);
      EXPECT_EQ(std::memcmp(rows.value().data(), want,
                            count * sizeof(double)),
                0)
          << cols[c].name << " [" << begin << ", +" << count << ")";
    }
  }
  EXPECT_EQ(ColumnStore::ReadRows(prefix_, "temperature", 4990, 20)
                .status()
                .code(),
            StatusCode::kOutOfRange);
}

TEST_F(ColumnStoreTest, ReadRowsReadsEachFileOnce) {
  // One manifest read plus one column-file read: the dtype comes from
  // the column file's own header, not from a second read of it.
  auto cols = MakeTable(3000);
  ASSERT_TRUE(ColumnStore::Write(prefix_, cols, /*page_size=*/4096).ok());
  fail::FailPoints::EnableCounting(true);
  fail::FailPoints::ResetCounters();
  auto rows = ColumnStore::ReadRows(prefix_, "vibration", 100, 2000);
  const uint64_t reads = fail::FailPoints::HitCount("fs.read");
  fail::FailPoints::EnableCounting(false);
  fail::FailPoints::ResetCounters();
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(reads, 2u);
}

TEST_F(ColumnStoreTest, ReadRowsRejectsBadRequests) {
  auto cols = MakeTable(100);
  ASSERT_TRUE(ColumnStore::Write(prefix_, cols).ok());
  EXPECT_FALSE(ColumnStore::ReadRows(prefix_, "no_such", 0, 1).ok());
  EXPECT_FALSE(ColumnStore::ReadRows(prefix_, "temperature", 95, 10).ok());
  EXPECT_FALSE(ColumnStore::ReadRows(prefix_, "temperature", 101, 1).ok());
}

TEST_F(ColumnStoreTest, RaggedColumnsRejected) {
  auto cols = MakeTable(100);
  cols[1].values.pop_back();
  EXPECT_FALSE(ColumnStore::Write(prefix_, cols).ok());
}

TEST_F(ColumnStoreTest, CorruptManifestDetected) {
  auto cols = MakeTable(100);
  ASSERT_TRUE(ColumnStore::Write(prefix_, cols).ok());
  // Flip one byte of the manifest: checksum must catch it.
  std::string path = prefix_ + ".manifest";
  std::FILE* f = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 6, SEEK_SET);
  int c = std::fgetc(f);
  std::fseek(f, 6, SEEK_SET);
  std::fputc(c ^ 0x20, f);
  std::fclose(f);
  auto df = ColumnStore::Read(prefix_);
  EXPECT_FALSE(df.ok());
  EXPECT_EQ(df.status().code(), StatusCode::kCorruption);
}

TEST_F(ColumnStoreTest, MissingStoreReportsIoError) {
  auto df = ColumnStore::Read("/tmp/fcbench_no_such_store");
  EXPECT_FALSE(df.ok());
  EXPECT_EQ(df.status().code(), StatusCode::kIoError);
}

TEST(DataFrameFromColumnsTest, Validation) {
  auto ok = DataFrame::FromColumns({"a", "b"}, {{1, 2}, {3, 4}});
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value().num_rows(), 2u);
  EXPECT_FALSE(DataFrame::FromColumns({"a"}, {{1}, {2}}).ok());
  EXPECT_FALSE(DataFrame::FromColumns({"a", "b"}, {{1, 2}, {3}}).ok());
}

}  // namespace
}  // namespace fcbench::db

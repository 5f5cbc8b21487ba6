// Tests for the simulated in-memory database: paged container, dataframe,
// and the I/O + decode + scan pipeline of paper §5.1.2.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <string>

#include "data/dataset.h"
#include "db/dataframe.h"
#include "db/paged_file.h"
#include "util/fs.h"
#include "util/rng.h"

namespace fcbench::db {
namespace {

std::string TempPath(const std::string& tag) {
  return std::string(::testing::TempDir()) + "/fcbench_" + tag + ".fcbf";
}

// The method is a std::string, not a const char*: gtest prints a pointer
// parameter as its address, which ASLR changes on every run, and that text
// lands in the test names that gtest_discover_tests registers with CTest.
class PagedFileRoundTrip : public ::testing::TestWithParam<
                               std::tuple<std::string, size_t>> {};

TEST_P(PagedFileRoundTrip, WriteReadIdentity) {
  auto [method, page_size] = GetParam();
  auto ds = data::GenerateDataset(*data::FindDataset("nyc-taxi"), 1 << 20);
  ASSERT_TRUE(ds.ok());

  std::string path = TempPath(std::string(method) + "_" +
                              std::to_string(page_size));
  PagedFile::Options opt;
  opt.page_size = page_size;
  opt.compressor = method;
  ASSERT_TRUE(
      PagedFile::Write(path, ds.value().bytes.span(), ds.value().desc, opt)
          .ok());

  PagedFile::ReadTiming timing;
  auto r = PagedFile::Read(path, &timing);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value().size(), ds.value().bytes.size());
  EXPECT_EQ(std::memcmp(r.value().data(), ds.value().bytes.data(),
                        r.value().size()),
            0);
  EXPECT_GE(timing.io_seconds, 0.0);
  EXPECT_GT(timing.decode_seconds, 0.0);
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    MethodsAndPages, PagedFileRoundTrip,
    ::testing::Combine(
        ::testing::Values("none", "bitshuffle_lz4", "bitshuffle_zstd",
                          "chimp128", "gorilla", "spdp", "mpc",
                          "nv_bitcomp"),
        ::testing::Values(size_t(4) << 10, size_t(64) << 10,
                          size_t(8) << 20)),
    [](const auto& param_info) {
      return std::string(std::get<0>(param_info.param)) + "_" +
             std::to_string(std::get<1>(param_info.param) >> 10) + "K";
    });

TEST(PagedFileTest, StoresDescMetadata) {
  auto ds = data::GenerateDataset(*data::FindDataset("wesad-chest"),
                                  512 << 10);
  ASSERT_TRUE(ds.ok());
  std::string path = TempPath("desc");
  PagedFile::Options opt;
  opt.compressor = "gorilla";
  ASSERT_TRUE(
      PagedFile::Write(path, ds.value().bytes.span(), ds.value().desc, opt)
          .ok());
  // Read hands back the stored descriptor from its one read.
  DataDesc desc;
  ASSERT_TRUE(PagedFile::Read(path, nullptr, &desc).ok());
  EXPECT_EQ(desc.dtype, DType::kFloat64);
  EXPECT_EQ(desc.extent, ds.value().desc.extent);
  std::remove(path.c_str());
}

TEST(PagedFileTest, CompressionShrinksFile) {
  auto ds = data::GenerateDataset(*data::FindDataset("citytemp"), 1 << 20);
  ASSERT_TRUE(ds.ok());
  std::string raw_path = TempPath("raw"), comp_path = TempPath("comp");
  PagedFile::Options raw_opt;  // "none"
  PagedFile::Options comp_opt;
  comp_opt.compressor = "bitshuffle_zstd";
  comp_opt.page_size = 64 << 10;
  ASSERT_TRUE(PagedFile::Write(raw_path, ds.value().bytes.span(),
                               ds.value().desc, raw_opt)
                  .ok());
  ASSERT_TRUE(PagedFile::Write(comp_path, ds.value().bytes.span(),
                               ds.value().desc, comp_opt)
                  .ok());
  auto raw_size = fs::FileSize(raw_path);
  auto comp_size = fs::FileSize(comp_path);
  ASSERT_TRUE(raw_size.ok());
  ASSERT_TRUE(comp_size.ok());
  EXPECT_LT(comp_size.value(), raw_size.value());
  std::remove(raw_path.c_str());
  std::remove(comp_path.c_str());
}

TEST(PagedFileTest, UnknownCompressorRejected) {
  std::vector<double> v(100, 1.0);
  PagedFile::Options opt;
  opt.compressor = "zpaq-ultra";
  EXPECT_FALSE(PagedFile::Write(TempPath("bad"), AsBytes(v),
                                DataDesc::Make(DType::kFloat64, {100}), opt)
                   .ok());
}

TEST(PagedFileTest, MissingFileFails) {
  PagedFile::ReadTiming t;
  EXPECT_FALSE(PagedFile::Read("/nonexistent/x.fcbf", &t).ok());
}

TEST(PagedFileTest, CorruptHeaderFails) {
  std::string path = TempPath("corrupt");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  const char garbage[] = "this is not a paged file at all";
  std::fwrite(garbage, 1, sizeof(garbage), f);
  std::fclose(f);
  PagedFile::ReadTiming t;
  EXPECT_FALSE(PagedFile::Read(path, &t).ok());
  std::remove(path.c_str());
}

// --- dataframe ---------------------------------------------------------

TEST(DataFrameTest, ColumnsFromRank2Extent) {
  std::vector<double> v;
  for (int r = 0; r < 100; ++r) {
    for (int c = 0; c < 4; ++c) v.push_back(r * 10.0 + c);
  }
  auto df = DataFrame::FromBytes(AsBytes(v),
                                 DataDesc::Make(DType::kFloat64, {100, 4}));
  ASSERT_TRUE(df.ok());
  EXPECT_EQ(df.value().num_rows(), 100u);
  EXPECT_EQ(df.value().num_columns(), 4u);
  EXPECT_DOUBLE_EQ(df.value().column(2)[5], 52.0);
  EXPECT_EQ(df.value().column_name(3), "c3");
}

TEST(DataFrameTest, SingleColumnFromRank1) {
  std::vector<float> v = {1.0f, 2.0f, 3.0f};
  auto df = DataFrame::FromBytes(AsBytes(v),
                                 DataDesc::Make(DType::kFloat32, {3}));
  ASSERT_TRUE(df.ok());
  EXPECT_EQ(df.value().num_columns(), 1u);
  EXPECT_DOUBLE_EQ(df.value().column(0)[1], 2.0);
}

TEST(DataFrameTest, ScanCountsAndSums) {
  std::vector<double> v = {1, 5, 3, 8, 2, 9, 4};
  auto df = DataFrame::FromBytes(
      AsBytes(v), DataDesc::Make(DType::kFloat64, {v.size()}));
  ASSERT_TRUE(df.ok());
  EXPECT_EQ(df.value().CountLessEqual(0, 4.0), 4u);
  EXPECT_DOUBLE_EQ(df.value().SumLessEqual(0, 4.0), 1 + 3 + 2 + 4);
  EXPECT_EQ(df.value().CountLessEqual(0, -1.0), 0u);
  EXPECT_EQ(df.value().CountLessEqual(0, 100.0), v.size());
}

TEST(DataFrameTest, HistogramEdgesSpanRange) {
  std::vector<double> v;
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) v.push_back(rng.Uniform(0, 100));
  auto df = DataFrame::FromBytes(
      AsBytes(v), DataDesc::Make(DType::kFloat64, {v.size()}));
  ASSERT_TRUE(df.ok());
  auto edges = df.value().HistogramEdges(0, 10);
  ASSERT_EQ(edges.size(), 10u);
  for (size_t i = 1; i < edges.size(); ++i) EXPECT_GT(edges[i], edges[i - 1]);
  // Last edge reaches the maximum -> full-table match.
  EXPECT_EQ(df.value().CountLessEqual(0, edges.back()), v.size());
}

TEST(DataFrameTest, SizeMismatchRejected) {
  std::vector<double> v(10);
  EXPECT_FALSE(DataFrame::FromBytes(
                   AsBytes(v), DataDesc::Make(DType::kFloat64, {11}))
                   .ok());
}

// --- end-to-end pipeline (the Table 11 path) -------------------------------

TEST(PipelineTest, ReadDecodeQuery) {
  auto ds = data::GenerateDataset(*data::FindDataset("tpcDS-web"), 1 << 20);
  ASSERT_TRUE(ds.ok());
  std::string path = TempPath("pipeline");
  PagedFile::Options opt;
  opt.compressor = "bitshuffle_lz4";
  opt.page_size = 64 << 10;
  ASSERT_TRUE(
      PagedFile::Write(path, ds.value().bytes.span(), ds.value().desc, opt)
          .ok());

  PagedFile::ReadTiming timing;
  auto bytes = PagedFile::Read(path, &timing);
  ASSERT_TRUE(bytes.ok());
  auto df = DataFrame::FromBytes(bytes.value().span(), ds.value().desc);
  ASSERT_TRUE(df.ok());
  auto edges = df.value().HistogramEdges(0, 10);
  ASSERT_EQ(edges.size(), 10u);
  uint64_t prev = 0;
  for (double e : edges) {
    uint64_t count = df.value().CountLessEqual(0, e);
    EXPECT_GE(count, prev);  // cumulative histogram is monotone
    prev = count;
  }
  EXPECT_EQ(prev, df.value().num_rows());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace fcbench::db

// Shared by the LSM engine suites (lsm_test.cc, lsm_crash_test.cc):
// temporary directories and the LsmEngineTest fixture with its
// deterministic three-column table.
#ifndef FCBENCH_TESTS_LSM_TEST_UTIL_H_
#define FCBENCH_TESTS_LSM_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "db/lsm/lsm_engine.h"
#include "util/fs.h"

namespace fcbench::db::lsm {
namespace {

std::string UniqueDir(const std::string& tag) {
  return "/tmp/fcbench_lsm_" + std::to_string(::getpid()) + "_" + tag;
}

/// Removes `dir` and its subdirectories (quarantine/).
void RemoveTree(const std::string& dir) {
  auto names = fs::ListDir(dir);
  if (names.ok()) {
    for (const auto& n : names.value()) {
      const std::string p = fs::JoinPath(dir, n);
      if (!fs::RemoveFile(p).ok()) RemoveTree(p);
    }
  }
  ::rmdir(dir.c_str());
}

void CopyTree(const std::string& src, const std::string& dst) {
  ASSERT_TRUE(fs::CreateDir(dst).ok());
  auto names = fs::ListDir(src);
  ASSERT_TRUE(names.ok());
  for (const auto& n : names.value()) {
    auto bytes = fs::ReadFile(fs::JoinPath(src, n));
    ASSERT_TRUE(bytes.ok());
    ASSERT_TRUE(fs::WriteFileAtomic(fs::JoinPath(dst, n),
                                    bytes.value().span(),
                                    /*durable=*/false)
                    .ok());
  }
}

class LsmEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = UniqueDir(
        ::testing::UnitTest::GetInstance()->current_test_info()->name());
    RemoveTree(dir_);
  }
  void TearDown() override {
    RemoveTree(dir_);
    RemoveTree(dir_ + "_probe");
  }

  static std::vector<ColumnDef> Schema() {
    return {
        {.name = "ts", .dtype = DType::kFloat64},
        {.name = "value", .dtype = DType::kFloat64},
        {.name = "flag", .dtype = DType::kFloat32},
    };
  }

  /// Row i of the deterministic test table.
  static std::vector<double> Row(uint64_t i) {
    return {1.0e9 + static_cast<double>(i) * 10.0,
            std::sin(static_cast<double>(i) * 0.01) * 100.0,
            static_cast<double>(i % 7)};
  }

  static std::vector<double> ExpectedColumn(size_t col, uint64_t nrows) {
    std::vector<double> v(nrows);
    for (uint64_t i = 0; i < nrows; ++i) {
      double x = Row(i)[col];
      if (col == 2) x = static_cast<double>(static_cast<float>(x));
      v[i] = x;
    }
    return v;
  }

  static void ExpectColumnsEqualPrefix(IngestEngine& eng, uint64_t nrows) {
    const char* names[] = {"ts", "value", "flag"};
    for (size_t c = 0; c < 3; ++c) {
      auto r = eng.ReadColumn(names[c]);
      ASSERT_TRUE(r.ok()) << names[c] << ": " << r.status().ToString();
      EXPECT_EQ(r.value(), ExpectedColumn(c, nrows)) << names[c];
    }
  }

  static Status AppendRows(IngestEngine& eng, uint64_t begin, uint64_t end,
                           size_t batch_rows) {
    std::vector<double> batch;
    for (uint64_t i = begin; i < end; ++i) {
      auto row = Row(i);
      batch.insert(batch.end(), row.begin(), row.end());
      if (batch.size() / 3 == batch_rows || i + 1 == end) {
        FCB_RETURN_IF_ERROR(eng.AppendBatch(batch));
        batch.clear();
      }
    }
    return Status::OK();
  }

  static EngineOptions FastOptions() {
    EngineOptions o;
    o.background_flush = false;
    o.compact_fanout = 0;           // compaction only when asked
    o.flush_compressor = "gorilla";  // cheap, deterministic for tests
    o.compact_compressor = "chimp128";
    return o;
  }

  /// Rows in each segment of OpenWithTwoSlowSegments.
  static constexpr uint64_t kReadSegRows = 8000;

  /// Opens an engine at dir_ holding two kReadSegRows-row segments in
  /// fpzip (flushed and compacted alike). Its slow decode keeps a reader
  /// inside segment files most of the time.
  void OpenWithTwoSlowSegments(std::unique_ptr<IngestEngine>* eng) {
    EngineOptions opt = FastOptions();
    opt.flush_compressor = opt.compact_compressor = "fpzip";
    auto opened = IngestEngine::Open(dir_, Schema(), opt);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    *eng = std::move(opened).TakeValue();
    for (uint64_t s = 0; s < 2; ++s) {
      ASSERT_TRUE(AppendRows(**eng, s * kReadSegRows, (s + 1) * kReadSegRows,
                             1000)
                      .ok());
      ASSERT_TRUE((*eng)->Flush().ok());
    }
  }

  std::string dir_;
};

}  // namespace
}  // namespace fcbench::db::lsm

#endif  // FCBENCH_TESTS_LSM_TEST_UTIL_H_

// Tests for the scan/aggregate query layer (src/db/query.h) and BUFF's
// predicate + aggregation pushdown on encoded streams (§3.3).

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "compressors/buff.h"
#include "db/dataframe.h"
#include "db/query.h"
#include "util/rng.h"

namespace fcbench::db {
namespace {

using compressors::BuffCompressor;

DataFrame MakeFrame(const std::vector<double>& values, size_t cols = 1) {
  std::vector<double> data = values;
  DataDesc desc;
  desc.dtype = DType::kFloat64;
  if (cols == 1) {
    desc.extent = {values.size()};
  } else {
    desc.extent = {values.size() / cols, cols};
  }
  auto r = DataFrame::FromBytes(AsBytes(data), desc);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.TakeValue();
}

TEST(QueryFilterTest, EachOperatorMatchesReference) {
  Rng rng(7);
  std::vector<double> values(2000);
  for (auto& v : values) v = std::floor(rng.Normal() * 10.0);
  DataFrame df = MakeFrame(values);

  const double c = 3.0;
  const double hi = 12.0;
  struct Case {
    CompareOp op;
    bool (*ref)(double, double, double);
  };
  const Case cases[] = {
      {CompareOp::kEq, [](double v, double a, double) { return v == a; }},
      {CompareOp::kNe, [](double v, double a, double) { return v != a; }},
      {CompareOp::kLt, [](double v, double a, double) { return v < a; }},
      {CompareOp::kLe, [](double v, double a, double) { return v <= a; }},
      {CompareOp::kGt, [](double v, double a, double) { return v > a; }},
      {CompareOp::kGe, [](double v, double a, double) { return v >= a; }},
      {CompareOp::kBetween,
       [](double v, double a, double b) { return v >= a && v <= b; }},
  };
  for (const Case& tc : cases) {
    ScanPredicate pred{.column = 0, .op = tc.op, .value = c, .upper = hi};
    auto sel = Filter(df, pred);
    ASSERT_TRUE(sel.ok());
    Selection expect;
    for (size_t i = 0; i < values.size(); ++i) {
      if (tc.ref(values[i], c, hi)) expect.push_back(uint32_t(i));
    }
    EXPECT_EQ(sel.value(), expect) << "op=" << static_cast<int>(tc.op);
  }
}

TEST(QueryFilterTest, EveryOperatorMatchesScanPredicateOnSpecialValues) {
  // Filter chooses the operator once, outside its row loop; it must
  // select exactly the rows ScanPredicate::Matches accepts, including
  // NaN (matches only kNe), +-0.0 (equal to each other) and +-inf.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> special = {nan, -0.0, 0.0, inf, -inf, 1.5,
                                       1.5, -2.0, nan, 0.0, 7.0, -inf};
  const std::vector<std::vector<double>> columns = {
      special,
      {},                    // empty column
      {3.0, 3.0, 3.0},       // duplicates: all or none match
      {nan, nan},            // nothing compares true but kNe
  };
  const double constants[] = {nan, -0.0, 0.0, inf, -inf, 1.5, 3.0, -2.0};
  const CompareOp ops[] = {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt,
                           CompareOp::kLe, CompareOp::kGt, CompareOp::kGe,
                           CompareOp::kBetween};
  size_t all_match = 0, no_match = 0;
  for (const auto& values : columns) {
    DataFrame df = MakeFrame(values);
    for (CompareOp op : ops) {
      for (double lo : constants) {
        for (double hi : constants) {
          ScanPredicate pred{.column = 0, .op = op, .value = lo, .upper = hi};
          auto sel = Filter(df, pred);
          ASSERT_TRUE(sel.ok());
          Selection expect;
          for (size_t i = 0; i < values.size(); ++i) {
            if (pred.Matches(values[i])) expect.push_back(uint32_t(i));
          }
          EXPECT_EQ(sel.value(), expect)
              << "op=" << static_cast<int>(op) << " value=" << lo
              << " upper=" << hi << " rows=" << values.size();
          if (!values.empty() && expect.size() == values.size()) ++all_match;
          if (!values.empty() && expect.empty()) ++no_match;
          if (op != CompareOp::kBetween) break;  // upper is unused
        }
      }
    }
  }
  // The inputs reach both extremes, not only partial selections.
  EXPECT_GT(all_match, 0u);
  EXPECT_GT(no_match, 0u);
}

TEST(QueryFilterTest, BadColumnRejected) {
  DataFrame df = MakeFrame({1, 2, 3});
  auto sel = Filter(df, ScanPredicate{.column = 5});
  EXPECT_FALSE(sel.ok());
  EXPECT_EQ(sel.status().code(), StatusCode::kInvalidArgument);
}

TEST(QueryFilterTest, ConjunctionRefinesSelection) {
  // Two columns: c0 = row index, c1 = row index % 10.
  std::vector<double> data;
  const size_t rows = 1000;
  for (size_t i = 0; i < rows; ++i) {
    data.push_back(double(i));
    data.push_back(double(i % 10));
  }
  DataFrame df = MakeFrame(data, 2);
  std::vector<ScanPredicate> preds = {
      {.column = 0, .op = CompareOp::kLt, .value = 500},
      {.column = 1, .op = CompareOp::kEq, .value = 3},
  };
  auto sel = FilterAll(df, preds);
  ASSERT_TRUE(sel.ok());
  ASSERT_EQ(sel.value().size(), 50u);  // rows 3, 13, ..., 493
  for (uint32_t row : sel.value()) {
    EXPECT_LT(row, 500u);
    EXPECT_EQ(row % 10, 3u);
  }
}

TEST(QueryFilterTest, EmptyPredicateListSelectsAll) {
  DataFrame df = MakeFrame({5, 6, 7, 8});
  auto sel = FilterAll(df, {});
  ASSERT_TRUE(sel.ok());
  EXPECT_EQ(sel.value().size(), 4u);
}

TEST(QueryAggregateTest, MatchesReferenceWithAndWithoutSelection) {
  Rng rng(11);
  std::vector<double> values(5000);
  for (auto& v : values) v = rng.Normal() * 100.0;
  DataFrame df = MakeFrame(values);

  double ref_sum = 0, ref_min = values[0], ref_max = values[0];
  for (double v : values) {
    ref_sum += v;
    ref_min = std::min(ref_min, v);
    ref_max = std::max(ref_max, v);
  }
  EXPECT_DOUBLE_EQ(Aggregate(df, 0, AggregateOp::kSum).value(), ref_sum);
  EXPECT_DOUBLE_EQ(Aggregate(df, 0, AggregateOp::kMin).value(), ref_min);
  EXPECT_DOUBLE_EQ(Aggregate(df, 0, AggregateOp::kMax).value(), ref_max);
  EXPECT_DOUBLE_EQ(Aggregate(df, 0, AggregateOp::kCount).value(),
                   double(values.size()));
  EXPECT_DOUBLE_EQ(Aggregate(df, 0, AggregateOp::kMean).value(),
                   ref_sum / values.size());

  ScanPredicate pred{.column = 0, .op = CompareOp::kGe, .value = 0.0};
  auto sel = Filter(df, pred);
  ASSERT_TRUE(sel.ok());
  double fsum = 0;
  for (uint32_t r : sel.value()) fsum += values[r];
  EXPECT_DOUBLE_EQ(
      Aggregate(df, 0, AggregateOp::kSum, &sel.value()).value(), fsum);
  EXPECT_DOUBLE_EQ(
      Aggregate(df, 0, AggregateOp::kCount, &sel.value()).value(),
      double(sel.value().size()));
}

TEST(QueryAggregateTest, EmptySelectionIdentities) {
  DataFrame df = MakeFrame({1, 2, 3});
  Selection empty;
  EXPECT_EQ(Aggregate(df, 0, AggregateOp::kCount, &empty).value(), 0.0);
  EXPECT_EQ(Aggregate(df, 0, AggregateOp::kSum, &empty).value(), 0.0);
  EXPECT_EQ(Aggregate(df, 0, AggregateOp::kMean, &empty).value(), 0.0);
  EXPECT_TRUE(std::isinf(Aggregate(df, 0, AggregateOp::kMin, &empty).value()));
  EXPECT_TRUE(std::isinf(Aggregate(df, 0, AggregateOp::kMax, &empty).value()));
}

TEST(QueryAggregateTest, OutOfRangeSelectionRejected) {
  DataFrame df = MakeFrame({1, 2, 3});
  Selection bad = {0, 9};
  EXPECT_FALSE(Aggregate(df, 0, AggregateOp::kSum, &bad).ok());
  EXPECT_FALSE(Gather(df, 0, bad).ok());
}

TEST(QueryGatherTest, ProjectsSelectedRows) {
  DataFrame df = MakeFrame({10, 20, 30, 40, 50});
  Selection sel = {1, 3};
  auto got = Gather(df, 0, sel);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value(), (std::vector<double>{20, 40}));
}

TEST(QueryWorkloadTest, HistogramScanCoversTable) {
  Rng rng(13);
  std::vector<double> values(10000);
  for (auto& v : values) v = rng.Normal();
  DataFrame df = MakeFrame(values);
  // The largest histogram edge is the column max, so the last scan matches
  // every row: total >= num_rows.
  uint64_t total = RunHistogramScanWorkload(df, 0, 10);
  EXPECT_GE(total, df.num_rows());
}

// --- BUFF pushdown vs. decode-then-scan equivalence -------------------------

class BuffPushdown : public ::testing::TestWithParam<int> {
 protected:
  // Low-precision sensor-like values, the BUFF target workload.
  void Generate(size_t n) {
    Rng rng(17);
    raw_.resize(n);
    for (auto& v : raw_) {
      v = std::round((20.0 + rng.Normal() * 5.0) * 100.0) / 100.0;
    }
    desc_.dtype = DType::kFloat64;
    desc_.extent = {n};
    desc_.precision_digits = 2;
    CompressorConfig cfg;
    BuffCompressor buff(cfg);
    ASSERT_TRUE(buff.Compress(AsBytes(raw_), desc_, &compressed_).ok());
    Buffer round;
    ASSERT_TRUE(buff.Decompress(compressed_.span(), desc_, &round).ok());
    decoded_.resize(n);
    std::memcpy(decoded_.data(), round.data(), round.size());
  }

  std::vector<double> raw_;
  std::vector<double> decoded_;
  DataDesc desc_;
  Buffer compressed_;
};

TEST_P(BuffPushdown, ScanAgreesWithDecodedScan) {
  Generate(20000);
  const double constant = 20.0 + GetParam();  // sweeps the value range
  struct Pair {
    BuffCompressor::Predicate pred;
    CompareOp op;
  };
  for (auto [pred, op] : {Pair{BuffCompressor::Predicate::kEqual,
                               CompareOp::kEq},
                          Pair{BuffCompressor::Predicate::kLess,
                               CompareOp::kLt},
                          Pair{BuffCompressor::Predicate::kGreaterEqual,
                               CompareOp::kGe}}) {
    auto hits = BuffCompressor::SubColumnScan(compressed_.span(), pred,
                                              constant);
    ASSERT_TRUE(hits.ok());
    ASSERT_EQ(hits.value().size(), decoded_.size());
    ScanPredicate sp{.column = 0, .op = op, .value = constant};
    size_t mismatches = 0;
    for (size_t i = 0; i < decoded_.size(); ++i) {
      if (hits.value()[i] != sp.Matches(decoded_[i])) ++mismatches;
    }
    EXPECT_EQ(mismatches, 0u)
        << "op=" << static_cast<int>(op) << " constant=" << constant;
  }
}

TEST_P(BuffPushdown, FilteredAggregateAgreesWithDecodedAggregate) {
  Generate(20000);
  const double constant = 20.0 + GetParam();
  auto agg = BuffCompressor::FilteredAggregate(
      compressed_.span(), BuffCompressor::Predicate::kLess, constant,
      BuffCompressor::Aggregate::kSum);
  ASSERT_TRUE(agg.ok());

  uint64_t ref_count = 0;
  double ref_sum = 0;
  for (double v : decoded_) {
    if (v < constant) {
      ++ref_count;
      ref_sum += v;
    }
  }
  EXPECT_EQ(agg.value().count, ref_count);
  EXPECT_NEAR(agg.value().value, ref_sum, 1e-6 * std::max(1.0, ref_sum));

  auto mn = BuffCompressor::FilteredAggregate(
      compressed_.span(), BuffCompressor::Predicate::kLess, constant,
      BuffCompressor::Aggregate::kMin);
  auto mx = BuffCompressor::FilteredAggregate(
      compressed_.span(), BuffCompressor::Predicate::kLess, constant,
      BuffCompressor::Aggregate::kMax);
  ASSERT_TRUE(mn.ok());
  ASSERT_TRUE(mx.ok());
  if (ref_count > 0) {
    double ref_min = std::numeric_limits<double>::infinity();
    double ref_max = -std::numeric_limits<double>::infinity();
    for (double v : decoded_) {
      if (v < constant) {
        ref_min = std::min(ref_min, v);
        ref_max = std::max(ref_max, v);
      }
    }
    EXPECT_DOUBLE_EQ(mn.value().value, ref_min);
    EXPECT_DOUBLE_EQ(mx.value().value, ref_max);
  } else {
    EXPECT_TRUE(std::isinf(mn.value().value));
    EXPECT_TRUE(std::isinf(mx.value().value));
  }
}

// Constants sweep from far below the minimum (-20) to far above the
// maximum (+20), exercising both short-circuit branches and the
// sub-column compare path.
INSTANTIATE_TEST_SUITE_P(ConstantSweep, BuffPushdown,
                         ::testing::Values(-40, -10, -2, 0, 2, 10, 40));

TEST(BuffPushdownTest, CorruptStreamRejected) {
  Buffer empty;
  auto r = BuffCompressor::SubColumnScan(empty.span(),
                                         BuffCompressor::Predicate::kLess, 0);
  EXPECT_FALSE(r.ok());
  auto a = BuffCompressor::FilteredAggregate(
      empty.span(), BuffCompressor::Predicate::kLess, 0,
      BuffCompressor::Aggregate::kSum);
  EXPECT_FALSE(a.ok());
}

}  // namespace
}  // namespace fcbench::db

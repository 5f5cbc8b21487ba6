// Tests for the core harness: registry, benchmark runner protocol,
// aggregation, recommendation engine, and the NN coder.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>

#include "core/compressor.h"
#include "core/recommend.h"
#include "core/runner.h"
#include "data/dataset.h"
#include "nn/nn_coder.h"
#include "util/rng.h"

namespace fcbench {
namespace {

TEST(RegistryTest, AllFifteenMethodsRegistered) {
  auto names = CompressorRegistry::Global().Names();
  std::set<std::string> set(names.begin(), names.end());
  for (const char* expected :
       {"pfpc", "spdp", "fpzip", "bitshuffle_lz4", "bitshuffle_zstd",
        "ndzip_cpu", "buff", "gorilla", "chimp128", "gfc", "mpc", "nv_lz4",
        "nv_bitcomp", "ndzip_gpu", "dzip_nn"}) {
    EXPECT_TRUE(set.count(expected)) << expected;
  }
  // Every lossless CPU method also has a chunk-parallel par- variant.
  for (const char* expected :
       {"par-pfpc", "par-spdp", "par-fpzip", "par-bitshuffle_lz4",
        "par-bitshuffle_zstd", "par-ndzip_cpu", "par-gorilla",
        "par-chimp128"}) {
    EXPECT_TRUE(set.count(expected)) << expected;
  }
  // Plus the three online adaptive selectors (one per §7.3 objective).
  for (const char* expected : {"auto", "auto-speed", "auto-ratio"}) {
    EXPECT_TRUE(set.count(expected)) << expected;
  }
  EXPECT_EQ(names.size(), 15u + 8u + 3u);
}

TEST(RunnerTest, ParallelModeResolvesParVariants) {
  BenchmarkRunner::Options opt;
  opt.parallel = true;
  BenchmarkRunner runner(opt);
  EXPECT_EQ(runner.ResolveMethod("gorilla"), "par-gorilla");
  EXPECT_EQ(runner.ResolveMethod("par-gorilla"), "par-gorilla");  // no par-par-
  EXPECT_EQ(runner.ResolveMethod("gfc"), "gfc");  // no par variant exists
  // The selectors are chunk-parallel already; no par- prefix applies.
  EXPECT_EQ(runner.ResolveMethod("auto"), "auto");
  EXPECT_EQ(runner.ResolveMethod("auto-ratio"), "auto-ratio");

  BenchmarkRunner serial;
  EXPECT_EQ(serial.ResolveMethod("gorilla"), "gorilla");
}

TEST(RunnerTest, AutoMethodRunsThroughTheProtocol) {
  BenchmarkRunner::Options opt;
  opt.repeats = 1;
  opt.dataset_bytes = 1 << 16;
  BenchmarkRunner runner(opt);
  auto ds = data::GenerateDataset(*data::FindDataset("citytemp"), 1 << 16);
  ASSERT_TRUE(ds.ok());
  RunResult r = runner.RunOne(std::string("auto"), ds.value());
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.method, "auto");
  EXPECT_TRUE(r.round_trip_exact);
  EXPECT_GT(r.cr, 1.0);
}

TEST(RegistryTest, AutoTraits) {
  auto& reg = CompressorRegistry::Global();
  for (const char* name : {"auto", "auto-speed", "auto-ratio"}) {
    auto c = reg.Create(name);
    ASSERT_TRUE(c.ok()) << name;
    const auto& t = c.value()->traits();
    EXPECT_EQ(t.name, name);
    EXPECT_TRUE(t.parallel) << name;
    EXPECT_EQ(t.arch, Arch::kCpu) << name;
    EXPECT_TRUE(t.supports_f32) << name;
    EXPECT_TRUE(t.supports_f64) << name;
  }
}

TEST(RunnerTest, ParallelModeRunsTheParVariant) {
  BenchmarkRunner::Options opt;
  opt.parallel = true;
  opt.repeats = 1;
  opt.dataset_bytes = 1 << 16;
  BenchmarkRunner runner(opt);
  auto ds = data::GenerateDataset(*data::FindDataset("msg-bt"), 1 << 16);
  ASSERT_TRUE(ds.ok());
  RunResult r = runner.RunOne(std::string("gorilla"), ds.value());
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.method, "par-gorilla");  // result carries the resolved name
  EXPECT_TRUE(r.round_trip_exact);
}

TEST(RegistryTest, ParVariantTraitsMirrorBase) {
  auto& reg = CompressorRegistry::Global();
  auto base = reg.Create("gorilla").TakeValue();
  auto par = reg.Create("par-gorilla").TakeValue();
  EXPECT_EQ(par->traits().name, "par-gorilla");
  EXPECT_TRUE(par->traits().parallel);
  EXPECT_EQ(par->traits().predictor, base->traits().predictor);
  EXPECT_EQ(par->traits().arch, Arch::kCpu);
}

TEST(RegistryTest, CreateUnknownFails) {
  auto r = CompressorRegistry::Global().Create("lzma9000");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(RegistryTest, TraitsMatchTable1) {
  auto& reg = CompressorRegistry::Global();
  struct Expect {
    const char* name;
    int year;
    Arch arch;
    bool parallel;
  };
  for (const Expect& e : std::initializer_list<Expect>{
           {"fpzip", 2006, Arch::kCpu, false},
           {"pfpc", 2009, Arch::kCpu, true},
           {"gfc", 2011, Arch::kGpu, true},
           {"gorilla", 2015, Arch::kCpu, false},
           {"mpc", 2015, Arch::kGpu, true},
           {"spdp", 2018, Arch::kCpu, false},
           {"ndzip_cpu", 2021, Arch::kCpu, true},
           {"buff", 2021, Arch::kCpu, false},
           {"chimp128", 2022, Arch::kCpu, false}}) {
    auto c = reg.Create(e.name);
    ASSERT_TRUE(c.ok()) << e.name;
    const auto& t = c.value()->traits();
    EXPECT_EQ(t.year, e.year) << e.name;
    EXPECT_EQ(t.arch, e.arch) << e.name;
    EXPECT_EQ(t.parallel, e.parallel) << e.name;
  }
}

TEST(RunnerTest, ProducesVerifiedResult) {
  BenchmarkRunner::Options opt;
  opt.repeats = 1;
  opt.dataset_bytes = 256 << 10;
  BenchmarkRunner runner(opt);
  auto ds = data::GenerateDataset(*data::FindDataset("turbulence"),
                                  opt.dataset_bytes);
  ASSERT_TRUE(ds.ok());
  auto r = runner.RunOne("ndzip_cpu", ds.value());
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(r.round_trip_exact);
  EXPECT_GT(r.cr, 1.0);
  EXPECT_GT(r.ct_gbps, 0.0);
  EXPECT_GT(r.dt_gbps, 0.0);
  EXPECT_GT(r.comp_wall_ms, 0.0);
  EXPECT_EQ(r.orig_bytes, ds.value().bytes.size());
}

TEST(RunnerTest, GpuMethodUsesModeledTiming) {
  BenchmarkRunner::Options opt;
  opt.repeats = 1;
  BenchmarkRunner runner(opt);
  auto ds = data::GenerateDataset(*data::FindDataset("msg-bt"), 512 << 10);
  ASSERT_TRUE(ds.ok());
  auto r = runner.RunOne("nv_bitcomp", ds.value());
  ASSERT_TRUE(r.ok) << r.error;
  // Modeled GPU throughput far exceeds anything the host could measure.
  EXPECT_GT(r.ct_gbps, 20.0);
  // End-to-end wall includes PCIe transfers, so wall time > kernel time.
  double kernel_ms = static_cast<double>(r.orig_bytes) / (r.ct_gbps * 1e9) * 1e3;
  EXPECT_GT(r.comp_wall_ms, kernel_ms);
}

TEST(RunnerTest, GfcOnFloat32ReportsUnsupported) {
  BenchmarkRunner runner;
  auto ds = data::GenerateDataset(*data::FindDataset("citytemp"), 128 << 10);
  ASSERT_TRUE(ds.ok());
  auto r = runner.RunOne("gfc", ds.value());
  EXPECT_FALSE(r.ok);
  EXPECT_FALSE(r.error.empty());
}

TEST(RunnerTest, SummarizeAggregates) {
  std::vector<RunResult> results;
  for (int d = 0; d < 3; ++d) {
    RunResult r;
    r.method = "m1";
    r.dataset = "d" + std::to_string(d);
    r.ok = true;
    r.cr = 2.0;
    r.ct_gbps = 1.0;
    r.dt_gbps = 2.0;
    results.push_back(r);
  }
  RunResult fail;
  fail.method = "m1";
  fail.dataset = "d3";
  fail.ok = false;
  results.push_back(fail);

  auto summaries = Summarize(results);
  ASSERT_EQ(summaries.size(), 1u);
  EXPECT_EQ(summaries[0].runs, 4);
  EXPECT_EQ(summaries[0].failures, 1);
  EXPECT_NEAR(summaries[0].harmonic_cr, 2.0, 1e-12);
  EXPECT_NEAR(summaries[0].mean_dt_gbps, 2.0, 1e-12);
}

TEST(RunnerTest, CrMatrixLayout) {
  std::vector<RunResult> results;
  for (const char* d : {"a", "b"}) {
    for (const char* m : {"x", "y"}) {
      RunResult r;
      r.method = m;
      r.dataset = d;
      r.ok = std::string(m) == "x";
      r.cr = 1.5;
      results.push_back(r);
    }
  }
  auto matrix = CrMatrix(results, {"x", "y"}, {"a", "b"});
  ASSERT_EQ(matrix.size(), 2u);
  EXPECT_DOUBLE_EQ(matrix[0][0], 1.5);
  EXPECT_DOUBLE_EQ(matrix[0][1], 0.0);  // failed run ranks worst
}

TEST(RecommendTest, PicksBestPerObjective) {
  std::vector<RunResult> results;
  auto add = [&](const char* m, const char* d, double cr, double wall) {
    RunResult r;
    r.method = m;
    r.dataset = d;
    r.ok = true;
    r.cr = cr;
    r.comp_wall_ms = wall / 2;
    r.decomp_wall_ms = wall / 2;
    results.push_back(r);
  };
  // Two HPC datasets: "slowbig" compresses best, "fastsmall" is fastest.
  for (const char* d : {"msg-bt", "turbulence"}) {
    add("slowbig", d, 3.0, 100.0);
    add("fastsmall", d, 1.2, 1.0);
  }
  RecommendationEngine eng(results);
  EXPECT_EQ(
      eng.Recommend(data::Domain::kHpc, Objective::kStorageReduction).method,
      "slowbig");
  EXPECT_EQ(eng.Recommend(data::Domain::kHpc, Objective::kSpeed).method,
            "fastsmall");
  std::string map = eng.RenderMap();
  EXPECT_NE(map.find("storage/HPC"), std::string::npos);
}

// Helper shared by the RecommendGeneral tests: one ok result per
// (method, dataset) with the given cr and end-to-end wall split.
RunResult MakeResult(const char* m, const char* d, double cr, double wall) {
  RunResult r;
  r.method = m;
  r.dataset = d;
  r.ok = true;
  r.cr = cr;
  r.comp_wall_ms = wall / 2;
  r.decomp_wall_ms = wall / 2;
  return r;
}

TEST(RecommendTest, GeneralUsesRankSumAcrossMetrics) {
  // CR ranks {big:0, allround:1, fast:2}; wall ranks {fast:0,
  // allround:1, big:2}; every sum is 2, and the three-way rank-sum tie
  // must break toward the highest harmonic CR -> "big".
  std::vector<RunResult> results;
  for (const char* d : {"msg-bt", "citytemp"}) {
    results.push_back(MakeResult("big", d, 4.0, 100.0));
    results.push_back(MakeResult("allround", d, 3.5, 5.0));
    results.push_back(MakeResult("fast", d, 1.1, 4.0));
  }
  RecommendationEngine eng(results);
  auto g = eng.RecommendGeneral();
  EXPECT_EQ(g.method, "big");
  EXPECT_NEAR(g.harmonic_cr, 4.0, 1e-12);
}

TEST(RecommendTest, GeneralRankSumTieBreaksTowardHigherCr) {
  // Two methods, perfectly mirrored ranks (each is first on one metric
  // and second on the other): the tie must break toward the higher
  // harmonic CR, deterministically.
  std::vector<RunResult> results;
  for (const char* d : {"msg-bt", "citytemp"}) {
    results.push_back(MakeResult("squeezer", d, 3.0, 50.0));
    results.push_back(MakeResult("sprinter", d, 1.5, 2.0));
  }
  RecommendationEngine eng(results);
  auto g = eng.RecommendGeneral();
  EXPECT_EQ(g.method, "squeezer");
  // The rationale speaks the shared selector vocabulary.
  EXPECT_NE(g.rationale.find("rank_sum"), std::string::npos);
  EXPECT_NE(g.rationale.find("harmonic_cr"), std::string::npos);
  EXPECT_NE(g.rationale.find("wall_ms"), std::string::npos);
}

TEST(RecommendTest, GeneralTiedMetricsShareAverageRank) {
  // "a" and "b" have identical CR everywhere; whichever the sort visits
  // first must not get an artificial full-rank advantage. With shared
  // average CR ranks, wall time alone decides: "b" is faster.
  std::vector<RunResult> results;
  for (const char* d : {"msg-bt", "citytemp"}) {
    results.push_back(MakeResult("a", d, 2.0, 10.0));
    results.push_back(MakeResult("b", d, 2.0, 5.0));
    results.push_back(MakeResult("c", d, 1.2, 1.0));
  }
  RecommendationEngine eng(results);
  EXPECT_EQ(eng.RecommendGeneral().method, "b");
}

TEST(RecommendTest, RenderMapListsEveryObjectiveAndGeneralRow) {
  std::vector<RunResult> results;
  for (const char* d : {"msg-bt", "citytemp", "acs-wht", "tpcH-order"}) {
    results.push_back(MakeResult("m1", d, 2.0, 10.0));
    results.push_back(MakeResult("m2", d, 1.5, 2.0));
  }
  RecommendationEngine eng(results);
  std::string map = eng.RenderMap();
  for (const char* needle :
       {"storage/HPC", "storage/TS", "storage/OBS", "storage/DB",
        "speed/HPC", "speed/TS", "speed/OBS", "speed/DB", "general:"}) {
    EXPECT_NE(map.find(needle), std::string::npos) << needle << "\n" << map;
  }
  EXPECT_NE(map.find("m1"), std::string::npos);
}

TEST(RecommendTest, RationaleUsesSelectorVocabulary) {
  std::vector<RunResult> results;
  for (const char* d : {"msg-bt", "turbulence"}) {
    results.push_back(MakeResult("m1", d, 2.0, 10.0));
    results.push_back(MakeResult("m2", d, 1.5, 2.0));
  }
  RecommendationEngine eng(results);
  auto storage =
      eng.Recommend(data::Domain::kHpc, Objective::kStorageReduction);
  EXPECT_NE(storage.rationale.find("objective=storage"), std::string::npos)
      << storage.rationale;
  EXPECT_NE(storage.rationale.find("harmonic_cr"), std::string::npos);
  auto speed = eng.Recommend(data::Domain::kHpc, Objective::kSpeed);
  EXPECT_NE(speed.rationale.find("objective=speed"), std::string::npos);
  EXPECT_NE(speed.rationale.find("wall_ms"), std::string::npos);
  auto balanced = eng.Recommend(data::Domain::kHpc, Objective::kBalanced);
  EXPECT_NE(balanced.rationale.find("objective=balanced"),
            std::string::npos);
}

// --- NN coder ----------------------------------------------------------

TEST(NnCoderTest, RoundTripBytes) {
  Rng rng(31);
  std::vector<double> v(4000);
  double x = 0;
  for (auto& f : v) {
    x += rng.Normal() * 0.1;
    f = x;
  }
  auto comp = nn::DzipNnCompressor::Make({});
  Buffer c, d;
  auto desc = DataDesc::Make(DType::kFloat64, {v.size()});
  ASSERT_TRUE(comp->Compress(AsBytes(v), desc, &c).ok());
  ASSERT_TRUE(comp->Decompress(c.span(), desc, &d).ok());
  ASSERT_EQ(d.size(), v.size() * 8);
  EXPECT_EQ(std::memcmp(d.data(), v.data(), d.size()), 0);
}

TEST(NnCoderTest, CompressesSkewedBytes) {
  // Text-like bytes: the context models should reach well under 8 bits.
  std::vector<uint8_t> text(40000);
  Rng rng(37);
  for (auto& b : text) {
    uint64_t r = rng.UniformInt(10);
    b = r < 5 ? ' ' : static_cast<uint8_t>('a' + r);
  }
  auto comp = nn::DzipNnCompressor::Make({});
  Buffer c;
  auto desc = DataDesc::Make(DType::kFloat64, {text.size() / 8});
  ASSERT_TRUE(comp->Compress(ByteSpan(text.data(), text.size()), desc, &c)
                  .ok());
  EXPECT_LT(c.size(), text.size() / 2);
}

TEST(NnCoderTest, OrdersOfMagnitudeSlowerThanFastMethods) {
  // The §4.5 finding: NN-based compression is impractical. Compare coder
  // throughput on the same buffer against bitshuffle_lz4.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "timing ratios are meaningless under sanitizers";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  GTEST_SKIP() << "timing ratios are meaningless under sanitizers";
#endif
#endif
  auto ds = data::GenerateDataset(*data::FindDataset("citytemp"), 128 << 10);
  ASSERT_TRUE(ds.ok());
  BenchmarkRunner::Options opt;
  opt.repeats = 1;
  BenchmarkRunner runner(opt);
  // Each method's fastest of 5 calls: one preemption during a single
  // ~128 KiB bitshuffle_lz4 call must not decide the comparison.
  auto best_ct_gbps = [&](const std::string& method) {
    double best = 0;
    for (int i = 0; i < 5; ++i) {
      auto r = runner.RunOne(method, ds.value());
      EXPECT_TRUE(r.ok) << method << ": " << r.error;
      best = std::max(best, r.ct_gbps);
    }
    return best;
  };
  EXPECT_LT(best_ct_gbps("dzip_nn") * 20, best_ct_gbps("bitshuffle_lz4"));
}

}  // namespace
}  // namespace fcbench

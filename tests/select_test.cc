// Tests for the online adaptive compressor-selection subsystem
// (src/select/): feature extraction, the probe-based scorer, the
// decision cache, the explain/trace API, and its adoption points
// (registry auto methods, StreamWriter::OpenChunked, ColumnStore).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/compressor.h"
#include "core/streaming.h"
#include "db/column_store.h"
#include "select/auto_compressor.h"
#include "select/features.h"
#include "select/selector.h"
#include "util/rng.h"

namespace fcbench {
namespace {

std::vector<double> SmoothWalk(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(n);
  double x = 42.0;
  for (auto& f : v) {
    x += rng.Normal() * 0.01;
    f = x;
  }
  return v;
}

std::vector<double> RandomBits(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (auto& f : v) {
    uint64_t w = rng.Next() >> 4;  // positive finite patterns
    std::memcpy(&f, &w, 8);
  }
  return v;
}

/// Heavy exact repeats in random order: 16 distinct random patterns.
/// chimp128's history finds every repeat; bitshuffle_lz4 sees noise.
std::vector<double> ShuffledRepeats(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> pool = RandomBits(16, seed);
  std::vector<double> v(n);
  for (auto& f : v) f = pool[rng.Next() % pool.size()];
  return v;
}

// --- features ---------------------------------------------------------------

TEST(FeaturesTest, ConstantDataIsDegenerate) {
  std::vector<double> v(2048, 1.25);
  auto f = select::ExtractChunkFeatures(AsBytes(v), DType::kFloat64);
  // One repeated word: zero word entropy, and byte entropy bounded by
  // the handful of distinct bytes inside the 8-byte pattern.
  EXPECT_LT(f.byte_entropy, 1.5);
  EXPECT_DOUBLE_EQ(f.word_entropy, 0.0);
  EXPECT_DOUBLE_EQ(f.repeat_ratio, 1.0);
  EXPECT_DOUBLE_EQ(f.xor_lz, 64.0);  // all XORs are zero
  EXPECT_DOUBLE_EQ(f.xor_tz, 64.0);
}

TEST(FeaturesTest, MonotoneRampHasFullDeltaMonotonicity) {
  std::vector<double> v(2048);
  for (size_t i = 0; i < v.size(); ++i) v[i] = static_cast<double>(i);
  auto f = select::ExtractChunkFeatures(AsBytes(v), DType::kFloat64);
  EXPECT_DOUBLE_EQ(f.delta_mono, 1.0);
  EXPECT_EQ(f.repeat_ratio, 0.0);
}

TEST(FeaturesTest, NoiseShowsHighEntropyLowStructure) {
  auto noise = RandomBits(4096, 9);
  auto smooth = SmoothWalk(4096, 9);
  auto fn = select::ExtractChunkFeatures(AsBytes(noise), DType::kFloat64);
  auto fs = select::ExtractChunkFeatures(AsBytes(smooth), DType::kFloat64);
  // Word entropy saturates for continuous data (every word distinct in
  // both corpora); the byte distribution is what separates them.
  EXPECT_GT(fn.byte_entropy, fs.byte_entropy);
  EXPECT_GT(fn.byte_entropy, 6.0);
  // A smooth walk shares sign+exponent+high mantissa bits between
  // neighbours; noise does not.
  EXPECT_GT(fs.xor_lz, fn.xor_lz);
}

TEST(FeaturesTest, QuantizedDecimalsShowMantissaTrailingZeros) {
  // Values with few decimal digits carry long runs of trailing
  // mantissa zeros — the signature BUFF/zstd-style methods exploit.
  std::vector<double> v(2048);
  Rng rng(5);
  for (auto& f : v) f = 0.25 * static_cast<double>(rng.UniformInt(1000));
  auto fq = select::ExtractChunkFeatures(AsBytes(v), DType::kFloat64);
  auto fn = select::ExtractChunkFeatures(AsBytes(RandomBits(2048, 6)),
                                         DType::kFloat64);
  EXPECT_GT(fq.mantissa_tz, 30.0);
  EXPECT_LT(fn.mantissa_tz, 10.0);
}

TEST(FeaturesTest, SignatureIsDeterministicAndDtypeAware) {
  auto v = SmoothWalk(4096, 11);
  auto f1 = select::ExtractChunkFeatures(AsBytes(v), DType::kFloat64);
  auto f2 = select::ExtractChunkFeatures(AsBytes(v), DType::kFloat64);
  EXPECT_EQ(f1.Signature(DType::kFloat64), f2.Signature(DType::kFloat64));
  EXPECT_NE(f1.Signature(DType::kFloat64), f1.Signature(DType::kFloat32));
}

TEST(FeaturesTest, ToStringUsesSharedVocabulary) {
  auto f = select::ExtractChunkFeatures(AsBytes(SmoothWalk(512, 3)),
                                        DType::kFloat64);
  std::string s = f.ToString();
  for (std::string_view vocab :
       {select::kVocabByteEntropy, select::kVocabWordEntropy,
        select::kVocabXorLz, select::kVocabXorTz, select::kVocabDeltaMono,
        select::kVocabMantissaTz, select::kVocabRepeatRatio}) {
    EXPECT_NE(s.find(vocab), std::string::npos) << vocab << " in " << s;
  }
}

// --- selector ---------------------------------------------------------------

select::Selector MakeSelector(Objective objective, int cache = -1) {
  select::Selector::Config cfg;
  cfg.objective = objective;
  cfg.cache_capacity = cache;
  return select::Selector(cfg);
}

DataDesc Desc64(size_t n) { return DataDesc::Make(DType::kFloat64, {n}); }

TEST(SelectorTest, DecisionCarriesEvidence) {
  auto v = SmoothWalk(8192, 21);
  auto sel = MakeSelector(Objective::kStorageReduction);
  auto d = sel.Choose(AsBytes(v), Desc64(v.size()));
  EXPECT_FALSE(d.method.empty());
  EXPECT_FALSE(d.cache_hit);
  EXPECT_FALSE(d.rationale.empty());
  EXPECT_EQ(d.candidates.size(),
            select::Selector::DefaultCandidates().size());
  // The winner's probe must have succeeded and carry the best score.
  bool winner_seen = false;
  for (const auto& c : d.candidates) {
    if (c.method == d.method) {
      winner_seen = true;
      EXPECT_TRUE(c.ok);
    }
  }
  EXPECT_TRUE(winner_seen);
  EXPECT_NE(d.rationale.find("objective=storage"), std::string::npos)
      << d.rationale;
}

TEST(SelectorTest, RatioObjectivePicksTheBestProbe) {
  auto v = SmoothWalk(8192, 22);
  auto sel = MakeSelector(Objective::kStorageReduction);
  auto d = sel.Choose(AsBytes(v), Desc64(v.size()));
  double best = 0;
  for (const auto& c : d.candidates) {
    if (c.ok && c.sample_cr > best) best = c.sample_cr;
  }
  for (const auto& c : d.candidates) {
    if (c.method == d.method) {
      EXPECT_DOUBLE_EQ(c.sample_cr, best);
    }
  }
}

TEST(SelectorTest, SpeedObjectiveShortlistsFastMethods) {
  auto v = RandomBits(8192, 23);
  auto sel = MakeSelector(Objective::kSpeed);
  auto d = sel.Choose(AsBytes(v), Desc64(v.size()));
  // The speed shortlist prunes the modeled-slow half; fpzip and spdp
  // must not have been probed on featureless noise.
  for (const auto& c : d.candidates) {
    EXPECT_NE(c.method, "fpzip");
    EXPECT_NE(c.method, "spdp");
  }
  EXPECT_LT(d.candidates.size(),
            select::Selector::DefaultCandidates().size());
}

TEST(SelectorTest, ObjectivesPartWhereFastAndTightMethodsDiffer) {
  // The fast method and the tight one differ by far more than 2x in
  // probe CR here: speed takes the fast one, the other objectives the
  // tight one.
  auto v = ShuffledRepeats(32768, 31);
  const auto desc = Desc64(v.size());
  auto speed = MakeSelector(Objective::kSpeed).Choose(AsBytes(v), desc);
  EXPECT_EQ(speed.method, "bitshuffle_lz4");
  auto storage =
      MakeSelector(Objective::kStorageReduction).Choose(AsBytes(v), desc);
  auto balanced = MakeSelector(Objective::kBalanced).Choose(AsBytes(v), desc);
  double fast_cr = 0;
  double tight_cr = 0;
  for (const auto& c : storage.candidates) {
    if (c.method == "bitshuffle_lz4") fast_cr = c.sample_cr;
    if (c.method == storage.method) tight_cr = c.sample_cr;
  }
  ASSERT_GT(fast_cr, 0.0);
  EXPECT_GT(tight_cr, 2.0 * fast_cr)
      << storage.method << " " << tight_cr << " vs " << fast_cr;
  EXPECT_NE(storage.method, "bitshuffle_lz4");
  EXPECT_EQ(balanced.method, storage.method);
}

TEST(SelectorTest, CacheHitsSkipProbes) {
  auto v = SmoothWalk(8192, 24);
  auto sel = MakeSelector(Objective::kBalanced);
  auto first = sel.Choose(AsBytes(v), Desc64(v.size()));
  ASSERT_FALSE(first.cache_hit);
  auto second = sel.Choose(AsBytes(v), Desc64(v.size()));
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.method, first.method);
  EXPECT_TRUE(second.candidates.empty());  // no probes ran
  EXPECT_EQ(sel.cache_hits(), 1u);
  EXPECT_EQ(sel.cache_misses(), 1u);
}

TEST(SelectorTest, CacheCapacityZeroDisablesCaching) {
  auto v = SmoothWalk(8192, 25);
  auto sel = MakeSelector(Objective::kBalanced, /*cache=*/0);
  (void)sel.Choose(AsBytes(v), Desc64(v.size()));
  auto second = sel.Choose(AsBytes(v), Desc64(v.size()));
  EXPECT_FALSE(second.cache_hit);
  EXPECT_EQ(sel.cache_hits(), 0u);
}

TEST(SelectorTest, CacheEvictsOldestSignatures) {
  // Capacity 1: a second distinct signature evicts the first, so
  // re-choosing the first data probes again.
  auto smooth = SmoothWalk(8192, 26);
  auto noise = RandomBits(8192, 26);
  auto sel = MakeSelector(Objective::kStorageReduction, /*cache=*/1);
  (void)sel.Choose(AsBytes(smooth), Desc64(smooth.size()));
  (void)sel.Choose(AsBytes(noise), Desc64(noise.size()));
  auto again = sel.Choose(AsBytes(smooth), Desc64(smooth.size()));
  EXPECT_FALSE(again.cache_hit);
}

TEST(SelectorTest, ChoiceIsDeterministicAcrossInstances) {
  auto v = SmoothWalk(32768, 27);
  auto a = MakeSelector(Objective::kStorageReduction);
  auto b = MakeSelector(Objective::kStorageReduction);
  auto da = a.Choose(AsBytes(v), Desc64(v.size()));
  auto db = b.Choose(AsBytes(v), Desc64(v.size()));
  EXPECT_EQ(da.method, db.method);
  EXPECT_EQ(da.signature, db.signature);
}

TEST(SelectorTest, TinyChunksAreHandled) {
  std::vector<double> v = {1.0, 2.0, 3.0};
  auto sel = MakeSelector(Objective::kBalanced);
  auto d = sel.Choose(AsBytes(v), Desc64(v.size()));
  EXPECT_FALSE(d.method.empty());
}

// --- auto compressor + trace ------------------------------------------------

TEST(AutoCompressorTest, NamesAndObjectivesRoundTrip) {
  EXPECT_EQ(select::AutoMethodName(Objective::kBalanced), "auto");
  EXPECT_EQ(select::AutoMethodName(Objective::kSpeed), "auto-speed");
  EXPECT_EQ(select::AutoMethodName(Objective::kStorageReduction),
            "auto-ratio");
  Objective o;
  EXPECT_TRUE(select::ParseAutoMethod("auto", &o));
  EXPECT_EQ(o, Objective::kBalanced);
  EXPECT_TRUE(select::ParseAutoMethod("auto-ratio", &o));
  EXPECT_EQ(o, Objective::kStorageReduction);
  EXPECT_TRUE(select::ParseAutoMethod("auto-speed", nullptr));
  EXPECT_FALSE(select::ParseAutoMethod("automatic", nullptr));
  EXPECT_FALSE(select::ParseAutoMethod("gorilla", nullptr));
}

TEST(AutoCompressorTest, TraceRecordsEveryChunkWithEvidence) {
  RegisterAllCompressors();
  auto v = SmoothWalk(4096, 31);
  select::SelectionTrace trace;
  CompressorConfig cfg;
  cfg.chunk_bytes = 8192;  // 4 chunks of 1024 f64
  cfg.selection_trace = &trace;
  auto comp = CompressorRegistry::Global().Create("auto", cfg).TakeValue();
  Buffer out;
  ASSERT_TRUE(comp->Compress(AsBytes(v), Desc64(v.size()), &out).ok());
  ASSERT_EQ(trace.entries.size(), 4u);
  for (const auto& e : trace.entries) {
    EXPECT_FALSE(e.decision.method.empty());
    EXPECT_GE(e.select_seconds, 0.0);
    EXPECT_EQ(e.raw_bytes, 8192u);
  }
  // Homogeneous data: chunks after the first hit the decision cache.
  EXPECT_GE(trace.cache_hits(), 1u);
  std::string rendered = trace.ToString();
  EXPECT_NE(rendered.find(select::kVocabByteEntropy), std::string::npos);
  EXPECT_NE(rendered.find("decision-cache hits"), std::string::npos);
}

TEST(AutoCompressorTest, SpeedAndBalancedWriteDifferentStreams) {
  // Where the objectives pick different methods, auto-speed's container
  // is not auto's, and both decode to the input.
  RegisterAllCompressors();
  auto v = ShuffledRepeats(16384, 32);
  Buffer out[2];
  const char* methods[2] = {"auto", "auto-speed"};
  for (size_t i = 0; i < 2; ++i) {
    auto comp = CompressorRegistry::Global().Create(methods[i]).TakeValue();
    ASSERT_TRUE(comp->Compress(AsBytes(v), Desc64(v.size()), &out[i]).ok());
    Buffer back;
    ASSERT_TRUE(
        comp->Decompress(out[i].span(), Desc64(v.size()), &back).ok());
    ASSERT_EQ(back.size(), v.size() * 8);
    EXPECT_EQ(std::memcmp(back.data(), v.data(), back.size()), 0);
  }
  EXPECT_LT(out[0].size(), out[1].size());
}

TEST(AutoCompressorTest, EmptyInputRoundTrips) {
  RegisterAllCompressors();
  auto comp = CompressorRegistry::Global().Create("auto").TakeValue();
  DataDesc desc = DataDesc::Make(DType::kFloat64, {0});
  Buffer enc, dec;
  ASSERT_TRUE(comp->Compress(ByteSpan(), desc, &enc).ok());
  EXPECT_GT(enc.size(), 0u);  // header still present
  ASSERT_TRUE(comp->Decompress(enc.span(), desc, &dec).ok());
  EXPECT_EQ(dec.size(), 0u);
}

// A version-1 (single-method) container names no method per chunk, so
// auto refuses it whole and chunk by chunk, even when it has no chunks.
TEST(AutoCompressorTest, RejectsSingleMethodContainers) {
  RegisterAllCompressors();
  CompressorConfig cfg;
  cfg.chunk_bytes = 4096;
  auto par = CompressorRegistry::Global().Create("par-gorilla", cfg);
  ASSERT_TRUE(par.ok());
  select::AutoCompressor comp(Objective::kBalanced, cfg);
  auto v = SmoothWalk(2000, 23);
  for (size_t n : {size_t(0), v.size()}) {
    const DataDesc desc = Desc64(n);
    Buffer v1;
    ASSERT_TRUE(par.value()
                    ->Compress(AsBytes(v.data(), n), desc, &v1)
                    .ok());
    Buffer out;
    Status st = comp.Decompress(v1.span(), desc, &out);
    EXPECT_EQ(st.code(), StatusCode::kCorruption) << n << " values";
    st = comp.DecompressChunk(v1.span(), desc, 0, &out);
    EXPECT_EQ(st.code(), StatusCode::kCorruption) << n << " values";
    EXPECT_EQ(out.size(), 0u);
  }
}

TEST(AutoCompressorTest, RejectsSizeMismatch) {
  RegisterAllCompressors();
  auto comp = CompressorRegistry::Global().Create("auto").TakeValue();
  std::vector<double> v(16, 1.0);
  Buffer out;
  auto st = comp->Compress(AsBytes(v), Desc64(99), &out);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

// --- adoption: streaming ----------------------------------------------------

TEST(SelectStreamingTest, OpenChunkedAcceptsAutoMethods) {
  RegisterAllCompressors();
  auto v = SmoothWalk(3000, 41);
  CompressorConfig cfg;
  cfg.chunk_bytes = 4096;
  auto writer = StreamWriter::OpenChunked("auto-ratio", cfg);
  ASSERT_TRUE(writer.ok());
  Buffer stream;
  ASSERT_TRUE(writer.value()
                  .Append(AsBytes(v), DType::kFloat64, &stream)
                  .ok());
  auto reader = StreamReader::OpenChunked("auto-ratio", cfg);
  ASSERT_TRUE(reader.ok());
  Buffer out;
  ASSERT_TRUE(reader.value().Next(stream.span(), &out).ok());
  ASSERT_EQ(out.size(), v.size() * 8);
  EXPECT_EQ(std::memcmp(out.data(), v.data(), out.size()), 0);
}

// --- adoption: column store -------------------------------------------------

class SelectColumnStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    RegisterAllCompressors();
    prefix_ = ::testing::TempDir() + "select_cols";
  }
  void TearDown() override { (void)db::ColumnStore::Drop(prefix_); }
  std::string prefix_;
};

TEST_F(SelectColumnStoreTest, AutoColumnsPersistResolvedMethods) {
  auto smooth = SmoothWalk(4000, 51);
  auto noise = RandomBits(4000, 52);
  std::vector<db::ColumnStore::ColumnSpec> cols(3);
  cols[0] = {.name = "smooth", .compressor = "auto-ratio",
             .dtype = DType::kFloat64, .precision_digits = 0,
             .values = smooth};
  cols[1] = {.name = "noise", .compressor = "auto-speed",
             .dtype = DType::kFloat64, .precision_digits = 0,
             .values = noise};
  cols[2] = {.name = "fixed", .compressor = "gorilla",
             .dtype = DType::kFloat64, .precision_digits = 0,
             .values = smooth};
  ASSERT_TRUE(db::ColumnStore::Write(prefix_, cols).ok());

  auto methods = db::ColumnStore::ListMethods(prefix_);
  ASSERT_TRUE(methods.ok());
  ASSERT_EQ(methods.value().size(), 3u);
  // Auto columns resolve to a concrete registered method — never the
  // "auto*" placeholder — and explicit choices persist verbatim.
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(methods.value()[i].rfind("auto", 0), std::string::npos)
        << methods.value()[i];
    EXPECT_TRUE(
        CompressorRegistry::Global().Contains(methods.value()[i]))
        << methods.value()[i];
  }
  EXPECT_EQ(methods.value()[2], "gorilla");

  // Data reads back exactly regardless of which method won.
  auto frame = db::ColumnStore::Read(prefix_, {"smooth"});
  ASSERT_TRUE(frame.ok());
  const auto& col = frame.value().column(0);
  ASSERT_EQ(col.size(), smooth.size());
  EXPECT_EQ(std::memcmp(col.data(), smooth.data(), smooth.size() * 8), 0);
}

}  // namespace
}  // namespace fcbench
// Round-trip, ratio-sanity, and feature tests for the eight CPU-based
// compressors of paper §3.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <memory>
#include <vector>

#include "compressors/bitshuffle.h"
#include "compressors/buff.h"
#include "compressors/chimp.h"
#include "compressors/fpzip.h"
#include "compressors/gorilla.h"
#include "compressors/ndzip.h"
#include "compressors/pfpc.h"
#include "compressors/spdp.h"
#include "compressors/transpose.h"
#include "util/bitio.h"
#include "util/rng.h"

namespace fcbench::compressors {
namespace {

// ---------------------------------------------------------------------------
// Test data generators

/// Smooth 3-D field (sum of low-frequency sinusoids + mild noise), the
/// structure scientific-simulation compressors exploit.
template <typename F>
std::vector<F> SmoothField3D(size_t d0, size_t d1, size_t d2, uint64_t seed) {
  std::vector<F> v(d0 * d1 * d2);
  Rng rng(seed);
  double ph0 = rng.Uniform(0, 6.28), ph1 = rng.Uniform(0, 6.28);
  for (size_t i = 0; i < d0; ++i) {
    for (size_t j = 0; j < d1; ++j) {
      for (size_t k = 0; k < d2; ++k) {
        double x = std::sin(0.05 * i + ph0) * std::cos(0.07 * j + ph1) +
                   0.5 * std::sin(0.02 * k) + 1e-4 * rng.Normal();
        v[(i * d1 + j) * d2 + k] = static_cast<F>(x * 100.0);
      }
    }
  }
  return v;
}

/// Random-walk time series.
template <typename F>
std::vector<F> RandomWalk(size_t n, uint64_t seed) {
  std::vector<F> v(n);
  Rng rng(seed);
  double x = 500.0;
  for (size_t i = 0; i < n; ++i) {
    x += rng.Normal() * 0.25;
    v[i] = static_cast<F>(x);
  }
  return v;
}

/// Fully random bit patterns (incompressible; stress case).
template <typename F>
std::vector<F> RandomBits(size_t n, uint64_t seed) {
  std::vector<F> v(n);
  Rng rng(seed);
  for (auto& f : v) {
    // Random finite value from random mantissa/limited exponent.
    f = static_cast<F>(rng.Uniform(-1e6, 1e6));
  }
  return v;
}

/// Decimal-quantized values (p digits), the regime where BUFF is lossless.
std::vector<double> DecimalSeries(size_t n, int digits, uint64_t seed) {
  std::vector<double> v(n);
  Rng rng(seed);
  double scale = std::pow(10.0, digits);
  double x = 20.0;
  for (size_t i = 0; i < n; ++i) {
    x += rng.Normal();
    v[i] = std::round(x * scale) / scale;
  }
  return v;
}

// ---------------------------------------------------------------------------
// Parameterized round-trip suite across (method factory, pattern, dtype)

struct MethodCase {
  const char* name;
  std::function<std::unique_ptr<Compressor>()> make;
  bool exact = true;  // bit-exact round trip expected
};

std::vector<MethodCase> AllMethods() {
  CompressorConfig cfg;
  cfg.threads = 4;
  return {
      {"gorilla", [cfg] { return GorillaCompressor::Make(cfg); }},
      {"chimp128", [cfg] { return ChimpCompressor::Make(cfg); }},
      {"pfpc", [cfg] { return PfpcCompressor::Make(cfg); }},
      {"spdp", [cfg] { return SpdpCompressor::Make(cfg); }},
      {"bitshuffle_lz4", [cfg] { return BitshuffleCompressor::MakeLz4(cfg); }},
      {"bitshuffle_zstd",
       [cfg] { return BitshuffleCompressor::MakeZstd(cfg); }},
      {"ndzip_cpu", [cfg] { return NdzipCompressor::Make(cfg); }},
      {"fpzip", [cfg] { return FpzipCompressor::Make(cfg); }},
  };
}

enum class DataKind { kSmooth3D, kWalk1D, kRandom2D, kConstant, kTinyOdd };

std::string KindName(DataKind k) {
  switch (k) {
    case DataKind::kSmooth3D: return "Smooth3D";
    case DataKind::kWalk1D: return "Walk1D";
    case DataKind::kRandom2D: return "Random2D";
    case DataKind::kConstant: return "Constant";
    case DataKind::kTinyOdd: return "TinyOdd";
  }
  return "?";
}

template <typename F>
std::pair<std::vector<F>, DataDesc> MakeData(DataKind kind) {
  DType dt = sizeof(F) == 4 ? DType::kFloat32 : DType::kFloat64;
  switch (kind) {
    case DataKind::kSmooth3D: {
      auto v = SmoothField3D<F>(20, 33, 37, 1);
      return {v, DataDesc::Make(dt, {20, 33, 37})};
    }
    case DataKind::kWalk1D: {
      auto v = RandomWalk<F>(40000, 2);
      return {v, DataDesc::Make(dt, {40000})};
    }
    case DataKind::kRandom2D: {
      auto v = RandomBits<F>(150 * 77, 3);
      return {v, DataDesc::Make(dt, {150, 77})};
    }
    case DataKind::kConstant: {
      std::vector<F> v(10000, static_cast<F>(42.5));
      return {v, DataDesc::Make(dt, {10000})};
    }
    case DataKind::kTinyOdd: {
      auto v = RandomWalk<F>(13, 4);
      return {v, DataDesc::Make(dt, {13})};
    }
  }
  return {{}, {}};
}

class CompressorRoundTrip
    : public ::testing::TestWithParam<std::tuple<int, DataKind, bool>> {};

TEST_P(CompressorRoundTrip, BitExact) {
  auto [mi, kind, f64] = GetParam();
  MethodCase m = AllMethods()[mi];
  auto comp = m.make();

  Buffer compressed, decompressed;
  if (f64) {
    auto [v, desc] = MakeData<double>(kind);
    ASSERT_TRUE(comp->Compress(AsBytes(v), desc, &compressed).ok());
    ASSERT_TRUE(comp->Decompress(compressed.span(), desc, &decompressed).ok());
    ASSERT_EQ(decompressed.size(), v.size() * 8);
    EXPECT_EQ(std::memcmp(decompressed.data(), v.data(), v.size() * 8), 0)
        << m.name << " " << KindName(kind) << " f64";
  } else {
    auto [v, desc] = MakeData<float>(kind);
    ASSERT_TRUE(comp->Compress(AsBytes(v), desc, &compressed).ok());
    ASSERT_TRUE(comp->Decompress(compressed.span(), desc, &decompressed).ok());
    ASSERT_EQ(decompressed.size(), v.size() * 4);
    EXPECT_EQ(std::memcmp(decompressed.data(), v.data(), v.size() * 4), 0)
        << m.name << " " << KindName(kind) << " f32";
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllMethods, CompressorRoundTrip,
    ::testing::Combine(::testing::Range(0, 8),
                       ::testing::Values(DataKind::kSmooth3D,
                                         DataKind::kWalk1D,
                                         DataKind::kRandom2D,
                                         DataKind::kConstant,
                                         DataKind::kTinyOdd),
                       ::testing::Bool()),
    [](const auto& param_info) {
      return std::string(AllMethods()[std::get<0>(param_info.param)].name) + "_" +
             KindName(std::get<1>(param_info.param)) +
             (std::get<2>(param_info.param) ? "_f64" : "_f32");
    });

// ---------------------------------------------------------------------------
// Ratio sanity: structured data must compress; CR relationships from the
// paper must hold in direction.

template <typename C>
double Ratio(C& comp, ByteSpan in, const DataDesc& desc) {
  Buffer out;
  EXPECT_TRUE(comp.Compress(in, desc, &out).ok());
  return static_cast<double>(in.size()) / static_cast<double>(out.size());
}

TEST(RatioTest, SmoothFieldCompresses) {
  auto v = SmoothField3D<float>(32, 32, 32, 7);
  auto desc = DataDesc::Make(DType::kFloat32, {32, 32, 32});
  for (auto& m : AllMethods()) {
    auto comp = m.make();
    double cr = Ratio(*comp, AsBytes(v), desc);
    // Lorenzo methods must exploit the 3-D structure; XOR/delta methods may
    // stay near 1.0 on noisy mantissas (the paper records sub-1.0 entries
    // for Gorilla/BUFF on several datasets) but must not blow up.
    if (comp->traits().predictor == PredictorClass::kLorenzo) {
      EXPECT_GT(cr, 1.3) << m.name;
    } else {
      EXPECT_GT(cr, 0.85) << m.name;
    }
  }
}

TEST(RatioTest, FpzipBestOnSmoothHpcData) {
  // §6.1.1: fpzip has the highest CR on (structured) HPC datasets.
  auto v = SmoothField3D<float>(32, 32, 32, 9);
  auto desc = DataDesc::Make(DType::kFloat32, {32, 32, 32});
  auto fpzip = FpzipCompressor::Make({});
  double cr_fpzip = Ratio(*fpzip, AsBytes(v), desc);
  auto gorilla = GorillaCompressor::Make({});
  double cr_gorilla = Ratio(*gorilla, AsBytes(v), desc);
  EXPECT_GT(cr_fpzip, cr_gorilla);
}

TEST(RatioTest, ChimpBeatsGorillaOnNoisyValues) {
  // §6.1.1 analysis: the sliding window lets Chimp beat Gorilla when
  // values are more random.
  auto v = RandomWalk<double>(60000, 11);
  auto dd = DataDesc::Make(DType::kFloat64, {60000});
  auto chimp = ChimpCompressor::Make({});
  auto gorilla = GorillaCompressor::Make({});
  EXPECT_GT(Ratio(*chimp, AsBytes(v), dd), Ratio(*gorilla, AsBytes(v), dd));
}

TEST(RatioTest, ZstdBackendBeatsLz4Backend) {
  auto v = RandomWalk<double>(60000, 13);
  auto dd = DataDesc::Make(DType::kFloat64, {60000});
  auto lz4 = BitshuffleCompressor::MakeLz4({});
  auto zstd = BitshuffleCompressor::MakeZstd({});
  EXPECT_GE(Ratio(*zstd, AsBytes(v), dd), Ratio(*lz4, AsBytes(v), dd) * 0.98);
}

// ---------------------------------------------------------------------------
// Transpose kernels

TEST(TransposeTest, Transpose8x8IsInvolution) {
  Rng rng(17);
  for (int t = 0; t < 100; ++t) {
    uint64_t x = rng.Next();
    EXPECT_EQ(Transpose8x8(Transpose8x8(x)), x);
  }
}

TEST(TransposeTest, BitTransposeRoundTrip) {
  Rng rng(19);
  for (size_t esize : {size_t(4), size_t(8)}) {
    for (size_t count : {size_t(8), size_t(32), size_t(64), size_t(4096)}) {
      std::vector<uint8_t> src(count * esize), fwd(count * esize),
          back(count * esize);
      for (auto& b : src) b = static_cast<uint8_t>(rng.Next());
      BitTranspose(src.data(), fwd.data(), count, esize);
      BitUntranspose(fwd.data(), back.data(), count, esize);
      EXPECT_EQ(src, back) << "esize=" << esize << " count=" << count;
    }
  }
}

TEST(TransposeTest, BitTransposeGroupsConstantBits) {
  // All elements identical -> every bit plane is constant 0x00 or 0xff.
  std::vector<uint32_t> elems(64, 0xdeadbeefu);
  std::vector<uint8_t> out(64 * 4);
  BitTranspose(reinterpret_cast<const uint8_t*>(elems.data()), out.data(),
               64, 4);
  for (size_t plane = 0; plane < 32; ++plane) {
    for (size_t b = 0; b < 8; ++b) {
      uint8_t byte = out[plane * 8 + b];
      EXPECT_TRUE(byte == 0x00 || byte == 0xff);
    }
  }
}

TEST(TransposeTest, ByteShuffleRoundTrip) {
  Rng rng(23);
  std::vector<uint8_t> src(999 * 8), fwd(999 * 8), back(999 * 8);
  for (auto& b : src) b = static_cast<uint8_t>(rng.Next());
  ByteShuffle(src.data(), fwd.data(), 999, 8);
  ByteUnshuffle(fwd.data(), back.data(), 999, 8);
  EXPECT_EQ(src, back);
}

// ---------------------------------------------------------------------------
// ndzip Lorenzo transform algebra

TEST(NdzipLorenzoTest, ForwardInverseIdentity3D) {
  size_t sides[3] = {16, 16, 16};
  Rng rng(29);
  std::vector<uint32_t> x(4096), orig;
  for (auto& w : x) w = static_cast<uint32_t>(rng.Next());
  orig = x;
  ndzip_detail::LorenzoForward(x.data(), sides);
  EXPECT_NE(x, orig);
  ndzip_detail::LorenzoInverse(x.data(), sides);
  EXPECT_EQ(x, orig);
}

TEST(NdzipLorenzoTest, ConstantFieldHasSingleNonzeroResidual) {
  size_t sides[3] = {16, 16, 16};
  std::vector<uint64_t> x(4096, 777);
  ndzip_detail::LorenzoForward(x.data(), sides);
  EXPECT_EQ(x[0], 777u);
  for (size_t i = 1; i < x.size(); ++i) EXPECT_EQ(x[i], 0u);
}

TEST(NdzipLorenzoTest, LinearRampResidualsVanishAfterSecondElement) {
  // 1-D ramp: forward difference leaves a constant, so only the first two
  // entries are nonzero after one delta pass.
  size_t sides[3] = {1, 1, 4096};
  std::vector<uint64_t> x(4096);
  for (size_t i = 0; i < x.size(); ++i) x[i] = 1000 + 3 * i;
  ndzip_detail::LorenzoForward(x.data(), sides);
  EXPECT_EQ(x[0], 1000u);
  for (size_t i = 1; i < x.size(); ++i) EXPECT_EQ(x[i], 3u);
}

// ---------------------------------------------------------------------------
// BUFF specifics

TEST(BuffTest, LosslessOnDecimalQuantizedData) {
  for (int digits : {1, 2, 3, 4, 6}) {
    auto v = DecimalSeries(20000, digits, 31 + digits);
    auto desc = DataDesc::Make(DType::kFloat64, {20000}, digits);
    auto comp = BuffCompressor::Make({});
    Buffer c, d;
    ASSERT_TRUE(comp->Compress(AsBytes(v), desc, &c).ok());
    ASSERT_TRUE(comp->Decompress(c.span(), desc, &d).ok());
    ASSERT_EQ(d.size(), v.size() * 8);
    EXPECT_EQ(std::memcmp(d.data(), v.data(), d.size()), 0)
        << "digits=" << digits;
  }
}

TEST(BuffTest, LossyWithoutPrecisionInfo) {
  // Full-precision doubles cannot fit the bounded encoding: values come
  // back close but not bit-exact (§3.3 feature 1).
  auto v = RandomWalk<double>(5000, 37);
  auto desc = DataDesc::Make(DType::kFloat64, {5000}, 0);  // unspecified
  auto comp = BuffCompressor::Make({});
  Buffer c, d;
  ASSERT_TRUE(comp->Compress(AsBytes(v), desc, &c).ok());
  ASSERT_TRUE(comp->Decompress(c.span(), desc, &d).ok());
  const double* back = reinterpret_cast<const double*>(d.data());
  double max_err = 0;
  for (size_t i = 0; i < v.size(); ++i) {
    max_err = std::max(max_err, std::fabs(back[i] - v[i]));
  }
  EXPECT_LT(max_err, 1e-9);  // bounded error
}

TEST(BuffTest, CompressionRatioTracksPrecision) {
  auto v2 = DecimalSeries(20000, 2, 41);
  auto comp = BuffCompressor::Make({});
  Buffer c2, c8;
  ASSERT_TRUE(comp->Compress(AsBytes(v2),
                             DataDesc::Make(DType::kFloat64, {20000}, 2), &c2)
                  .ok());
  ASSERT_TRUE(comp->Compress(AsBytes(v2),
                             DataDesc::Make(DType::kFloat64, {20000}, 8), &c8)
                  .ok());
  EXPECT_LT(c2.size(), c8.size());
  // 2 digits: 8 frac bits + ~9 int bits -> 3 bytes/record vs 8 input.
  EXPECT_GT(static_cast<double>(v2.size() * 8) / c2.size(), 2.5);
}

TEST(BuffTest, SubColumnScanMatchesDecodedScan) {
  auto v = DecimalSeries(10000, 2, 43);
  auto desc = DataDesc::Make(DType::kFloat64, {10000}, 2);
  auto comp = BuffCompressor::Make({});
  Buffer c;
  ASSERT_TRUE(comp->Compress(AsBytes(v), desc, &c).ok());

  for (double threshold : {v[100], v[5000], 20.0, -1e9, 1e9}) {
    auto r = BuffCompressor::SubColumnScan(
        c.span(), BuffCompressor::Predicate::kLess, threshold);
    ASSERT_TRUE(r.ok());
    const auto& hits = r.value();
    ASSERT_EQ(hits.size(), v.size());
    for (size_t i = 0; i < v.size(); ++i) {
      EXPECT_EQ(hits[i], v[i] < threshold) << "i=" << i << " thr=" << threshold;
    }
  }
}

TEST(BuffTest, SubColumnEqualScan) {
  auto v = DecimalSeries(5000, 1, 47);
  auto desc = DataDesc::Make(DType::kFloat64, {5000}, 1);
  auto comp = BuffCompressor::Make({});
  Buffer c;
  ASSERT_TRUE(comp->Compress(AsBytes(v), desc, &c).ok());
  double needle = v[1234];
  auto r = BuffCompressor::SubColumnScan(
      c.span(), BuffCompressor::Predicate::kEqual, needle);
  ASSERT_TRUE(r.ok());
  for (size_t i = 0; i < v.size(); ++i) {
    EXPECT_EQ(r.value()[i], v[i] == needle);
  }
}

// ---------------------------------------------------------------------------
// pFPC specifics

TEST(PfpcTest, ThreadCountDoesNotAffectDecodeCorrectness) {
  auto v = RandomWalk<double>(50000, 53);
  auto desc = DataDesc::Make(DType::kFloat64, {50000});
  for (int threads : {1, 2, 8, 16}) {
    CompressorConfig cfg;
    cfg.threads = threads;
    auto comp = PfpcCompressor::Make(cfg);
    Buffer c, d;
    ASSERT_TRUE(comp->Compress(AsBytes(v), desc, &c).ok());
    // Decompress with a *different* thread count must still work.
    CompressorConfig cfg2;
    cfg2.threads = 3;
    auto comp2 = PfpcCompressor::Make(cfg2);
    ASSERT_TRUE(comp2->Decompress(c.span(), desc, &d).ok());
    EXPECT_EQ(std::memcmp(d.data(), v.data(), v.size() * 8), 0)
        << threads << " threads";
  }
}

TEST(PfpcTest, CorruptStreamsLeaveTheDecoderTablesClean) {
  // The decoder reuses the per-thread predictor tables and must zero what
  // it wrote even when a chunk turns out corrupt: a large chunk (full
  // refill) and a small one (replayed writes), each damaged three ways,
  // then the intact stream must still decode exactly on the same thread
  // (one thread: the chunk runs inline on it).
  CompressorConfig cfg;
  cfg.threads = 1;
  auto comp = PfpcCompressor::Make(cfg);
  for (size_t n : {size_t(50000), size_t(1000)}) {
    auto v = RandomWalk<double>(n, 67);
    auto desc = DataDesc::Make(DType::kFloat64, {n});
    Buffer c;
    ASSERT_TRUE(comp->Compress(AsBytes(v), desc, &c).ok());
    const std::vector<uint8_t> good = c.ToVector();
    for (int damage = 0; damage < 3; ++damage) {
      std::vector<uint8_t> bad = good;
      if (damage == 0) bad[bad.size() / 2] ^= 0x5a;  // a residual byte
      if (damage == 1) bad[24] ^= 0xff;              // early code nibbles
      if (damage == 2) {
        // Residue one byte short: the chunk fails on its last word, after
        // every other word went through the tables.
        const ByteSpan span(bad.data(), bad.size());
        size_t off = 0;
        uint64_t field = 0;
        // nchunks, chunk_words, tail, the one chunk's size, its code size.
        for (int f = 0; f < 5; ++f) {
          ASSERT_TRUE(GetVarint64(span, &off, &field));
        }
        const size_t at = off;
        ASSERT_TRUE(GetVarint64(span, &off, &field));
        ASSERT_EQ(off - at, VarintSize(field - 1));
        PutVarint64(bad.data() + at, field - 1);
      }
      Buffer junk;
      const Status st =
          comp->Decompress(ByteSpan(bad.data(), bad.size()), desc, &junk);
      if (damage == 2) {
        ASSERT_FALSE(st.ok());
      }
      Buffer d;
      ASSERT_TRUE(comp->Decompress(c.span(), desc, &d).ok());
      ASSERT_EQ(d.size(), n * 8);
      EXPECT_EQ(std::memcmp(d.data(), v.data(), n * 8), 0)
          << n << " words after damage " << damage;
    }
  }
}

TEST(PfpcTest, MoreThreadsLowerRatioOnCorrelatedData) {
  // §3.6: mixing values from multiple dimensions across big chunks can
  // decrease the ratio; with 1 thread the predictor sees the full history.
  auto v = SmoothField3D<double>(8, 64, 64, 59);
  auto desc = DataDesc::Make(DType::kFloat64, {8, 64, 64});
  CompressorConfig one;
  one.threads = 1;
  CompressorConfig many;
  many.threads = 16;
  auto c1 = PfpcCompressor::Make(one);
  auto c16 = PfpcCompressor::Make(many);
  double r1 = Ratio(*c1, AsBytes(v), desc);
  double r16 = Ratio(*c16, AsBytes(v), desc);
  EXPECT_GE(r1, r16 * 0.95);  // single-thread at least comparable
}

// ---------------------------------------------------------------------------
// Block-size knob (Table 10 dependence)

TEST(BlockSizeTest, BitshuffleRatioImprovesWithBlockSize) {
  auto v = RandomWalk<double>(1 << 17, 61);
  auto desc = DataDesc::Make(DType::kFloat64, {1 << 17});
  double prev = 0;
  for (size_t bs : {size_t(4096), size_t(65536), size_t(1 << 20)}) {
    CompressorConfig cfg;
    cfg.block_size = bs;
    auto comp = BitshuffleCompressor::MakeZstd(cfg);
    Buffer c;
    ASSERT_TRUE(comp->Compress(AsBytes(v), desc, &c).ok());
    double cr = static_cast<double>(v.size() * 8) / c.size();
    EXPECT_GT(cr, prev * 0.9) << "bs=" << bs;
    prev = cr;
  }
}

// ---------------------------------------------------------------------------
// Error handling

TEST(ErrorTest, CorruptStreamsDoNotCrash) {
  auto v = RandomWalk<double>(8192, 67);
  auto desc = DataDesc::Make(DType::kFloat64, {8192});
  for (auto& m : AllMethods()) {
    auto comp = m.make();
    Buffer c;
    ASSERT_TRUE(comp->Compress(AsBytes(v), desc, &c).ok());
    Buffer copy = Buffer::FromSpan(c.span());
    // Truncations and bit flips must be memory-safe.
    for (size_t cut : {c.size() / 2, c.size() / 4, size_t(3)}) {
      Buffer d;
      (void)comp->Decompress(c.span().subspan(0, cut), desc, &d);
    }
    for (size_t victim = 0; victim < copy.size(); victim += 211) {
      copy.data()[victim] ^= 0x80;
      Buffer d;
      (void)comp->Decompress(copy.span(), desc, &d);
      copy.data()[victim] ^= 0x80;
    }
  }
}

TEST(ErrorTest, EmptyInputRoundTrips) {
  auto desc = DataDesc::Make(DType::kFloat64, {0});
  for (auto& m : AllMethods()) {
    auto comp = m.make();
    Buffer c, d;
    ASSERT_TRUE(comp->Compress(ByteSpan(), desc, &c).ok()) << m.name;
    ASSERT_TRUE(comp->Decompress(c.span(), desc, &d).ok()) << m.name;
    EXPECT_EQ(d.size(), 0u) << m.name;
  }
}

}  // namespace
}  // namespace fcbench::compressors

// Unit tests for the util substrate: Status/Result, bit I/O, varints,
// float bit mappings, RNG determinism, entropy, thread pool, mem tracker.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/bitio.h"
#include "util/buffer.h"
#include "util/fs.h"
#include "util/entropy.h"
#include "util/failpoint.h"
#include "util/float_bits.h"
#include "util/mem_tracker.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace fcbench {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::Corruption("bad magic");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kCorruption);
  EXPECT_EQ(s.ToString(), "Corruption: bad magic");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int c = 0; c <= static_cast<int>(StatusCode::kResourceExhausted);
       ++c) {
    EXPECT_FALSE(StatusCodeName(static_cast<StatusCode>(c)).empty());
  }
}

Result<int> ParsePositive(int v) {
  if (v <= 0) return Status::InvalidArgument("not positive");
  return v;
}

TEST(ResultTest, HoldsValueOrStatus) {
  auto good = ParsePositive(5);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good.value(), 5);

  auto bad = ParsePositive(-1);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

Status UseAssignOrReturn(int v, int* out) {
  FCB_ASSIGN_OR_RETURN(*out, ParsePositive(v));
  return Status::OK();
}

TEST(ResultTest, AssignOrReturnMacro) {
  int out = 0;
  EXPECT_TRUE(UseAssignOrReturn(7, &out).ok());
  EXPECT_EQ(out, 7);
  EXPECT_FALSE(UseAssignOrReturn(-7, &out).ok());
}

TEST(BufferTest, AppendAndResize) {
  Buffer b;
  EXPECT_TRUE(b.empty());
  b.PushBack(1);
  b.PushBack(2);
  uint8_t more[3] = {3, 4, 5};
  b.Append(more, 3);
  ASSERT_EQ(b.size(), 5u);
  for (size_t i = 0; i < 5; ++i) EXPECT_EQ(b.data()[i], i + 1);
  b.Resize(2);
  EXPECT_EQ(b.size(), 2u);
  b.Resize(100);
  EXPECT_EQ(b.data()[0], 1);  // preserved across growth
  EXPECT_EQ(b.data()[1], 2);
}

TEST(BufferTest, MoveTransfersOwnership) {
  Buffer a;
  a.Append("hello", 5);
  Buffer b = std::move(a);
  EXPECT_EQ(b.size(), 5u);
  EXPECT_EQ(a.size(), 0u);  // NOLINT(bugprone-use-after-move)
}

TEST(BitIoTest, RoundTripBits) {
  Buffer buf;
  BitWriter bw(&buf);
  bw.WriteBits(0b101, 3);
  bw.WriteBits(0xdeadbeef, 32);
  bw.WriteBit(1);
  bw.WriteBits(0, 13);
  bw.WriteBits(0x1ffff, 17);
  bw.Flush();

  BitReader br(buf.span());
  EXPECT_EQ(br.ReadBits(3), 0b101u);
  EXPECT_EQ(br.ReadBits(32), 0xdeadbeefu);
  EXPECT_EQ(br.ReadBit(), 1u);
  EXPECT_EQ(br.ReadBits(13), 0u);
  EXPECT_EQ(br.ReadBits(17), 0x1ffffu);
  EXPECT_FALSE(br.overrun());
}

TEST(BitIoTest, ReaderDetectsOverrun) {
  Buffer buf;
  BitWriter bw(&buf);
  bw.WriteBits(0xff, 8);
  bw.Flush();
  BitReader br(buf.span());
  br.ReadBits(8);
  EXPECT_FALSE(br.overrun());
  br.ReadBit();
  EXPECT_TRUE(br.overrun());
}

TEST(BitIoTest, SixtyFourBitValues) {
  Buffer buf;
  BitWriter bw(&buf);
  const uint64_t v = 0x0123456789abcdefULL;
  bw.WriteBits(v, 64);
  bw.Flush();
  BitReader br(buf.span());
  EXPECT_EQ(br.ReadBits(64), v);
}

// ---------------------------------------------------------------------------
// Word-at-a-time bit I/O edge cases. The writer/reader keep a 64-bit
// accumulator, so every width that straddles an internal boundary (8, 32,
// 64) and the shift-by-64 UB traps get explicit coverage.
// ---------------------------------------------------------------------------

TEST(BitIoTest, AllBoundaryWidthsRoundTrip) {
  const int widths[] = {0, 1, 7, 8, 9, 31, 32, 33, 63, 64};
  // Patterns with high bits set so masking bugs (junk above nbits) show up.
  const uint64_t patterns[] = {0, ~0ull, 0xa5a5a5a5a5a5a5a5ull,
                               0x8000000000000001ull, 0x0123456789abcdefull};
  for (uint64_t p : patterns) {
    Buffer buf;
    BitWriter bw(&buf);
    size_t total = 0;
    for (int w : widths) {
      bw.WriteBits(p, w);
      total += w;
    }
    EXPECT_EQ(bw.bit_count(), total);
    bw.Flush();
    ASSERT_EQ(buf.size(), (total + 7) / 8);

    BitReader br(buf.span());
    for (int w : widths) {
      uint64_t mask = (w == 64) ? ~0ull : ((uint64_t(1) << w) - 1);
      EXPECT_EQ(br.ReadBits(w), p & mask) << "width " << w;
    }
    EXPECT_FALSE(br.overrun());
    EXPECT_EQ(br.bits_consumed(), total);
  }
}

TEST(BitIoTest, ZeroWidthIsANoOp) {
  Buffer buf;
  BitWriter bw(&buf);
  bw.WriteBits(0xff, 0);
  EXPECT_EQ(bw.bit_count(), 0u);
  bw.Flush();
  EXPECT_EQ(buf.size(), 0u);
  BitReader br(buf.span());
  EXPECT_EQ(br.ReadBits(0), 0u);
  EXPECT_FALSE(br.overrun());
  EXPECT_EQ(br.bits_consumed(), 0u);
}

TEST(BitIoTest, BitCountScopedToWriterNotBuffer) {
  // A writer over a non-empty buffer (multi-part encodings) must count only
  // its own bits, not pre-existing bytes.
  Buffer buf;
  buf.Append("header", 6);
  BitWriter bw(&buf);
  EXPECT_EQ(bw.bit_count(), 0u);
  bw.WriteBits(0x3, 2);
  EXPECT_EQ(bw.bit_count(), 2u);
  bw.WriteBits(0, 64);
  EXPECT_EQ(bw.bit_count(), 66u);
  bw.Flush();
  EXPECT_EQ(bw.bit_count(), 66u);  // flush padding is not counted
  EXPECT_EQ(buf.size(), 6u + 9u);
}

TEST(BitIoTest, OverrunMidRefillDeliversRealBitsThenZeros) {
  // 2 bytes of input; a 24-bit read crosses the end mid-refill. The real
  // bits must land in the top positions with zero fill below, and the
  // overrun flag must be raised by that same read, not later.
  Buffer buf;
  BitWriter bw(&buf);
  bw.WriteBits(0xabcd, 16);
  bw.Flush();
  BitReader br(buf.span());
  EXPECT_EQ(br.ReadBits(24), 0xabcd00u);
  EXPECT_TRUE(br.overrun());
  EXPECT_EQ(br.bits_consumed(), 16u);  // fabricated bits are not counted
  // Sticky across every subsequent path.
  EXPECT_EQ(br.ReadBits(64), 0u);
  EXPECT_EQ(br.ReadBit(), 0u);
  EXPECT_EQ(br.ReadUnary(4), 0);
  EXPECT_TRUE(br.overrun());
}

TEST(BitIoTest, WideReadOverrunAcrossWordBoundary) {
  // 7 bytes: a 64-bit read must take all 56 real bits then fabricate 8
  // zeros, flagging the overrun within the same call.
  Buffer buf;
  for (int i = 0; i < 7; ++i) buf.PushBack(static_cast<uint8_t>(0x11 * (i + 1)));
  BitReader br(buf.span());
  uint64_t v = br.ReadBits(64);
  EXPECT_EQ(v, 0x1122334455667700ull);
  EXPECT_TRUE(br.overrun());
  EXPECT_EQ(br.bits_consumed(), 56u);
}

TEST(BitIoTest, BitsConsumedAcrossRefillBoundaries) {
  // 24 bytes so the reader refills its 64-bit window three times.
  Buffer buf;
  BitWriter bw(&buf);
  for (int i = 0; i < 24; ++i) bw.WriteBits(static_cast<uint64_t>(i), 8);
  bw.Flush();
  BitReader br(buf.span());
  size_t consumed = 0;
  const int steps[] = {3, 5, 56, 17, 33, 1, 7, 40, 30};
  for (int s : steps) {
    br.ReadBits(s);
    consumed += s;
    EXPECT_EQ(br.bits_consumed(), consumed) << "after step " << s;
  }
  EXPECT_FALSE(br.overrun());
}

TEST(BitIoTest, UnaryRoundTrip) {
  Buffer buf;
  BitWriter bw(&buf);
  const uint32_t runs[] = {0, 1, 3, 31, 32, 63, 100};
  for (uint32_t r : runs) bw.WriteUnary(r);
  bw.Flush();
  BitReader br(buf.span());
  for (uint32_t r : runs) {
    EXPECT_EQ(br.ReadUnary(1000), static_cast<int>(r));
  }
  EXPECT_FALSE(br.overrun());
}

TEST(BitIoTest, UnaryCapDoesNotConsumeTerminator) {
  // 1111 0... — capped at 4 ones, the following bit is payload, not a
  // terminator (the Gorilla timestamp escape-code shape).
  Buffer buf;
  BitWriter bw(&buf);
  bw.WriteBits(0b11110101, 8);
  bw.Flush();
  BitReader br(buf.span());
  EXPECT_EQ(br.ReadUnary(4), 4);
  EXPECT_EQ(br.bits_consumed(), 4u);
  EXPECT_EQ(br.ReadBits(4), 0b0101u);
}

TEST(BitIoTest, UnaryTruncationFlagsOverrun) {
  Buffer buf;
  BitWriter bw(&buf);
  bw.WriteBits(0xff, 8);  // all ones, no terminator in stream
  bw.Flush();
  BitReader br(buf.span());
  EXPECT_EQ(br.ReadUnary(64), 8);
  EXPECT_TRUE(br.overrun());
}

TEST(BitIoTest, ReadBitsUncheckedMatchesChecked) {
  Buffer buf;
  BitWriter bw(&buf);
  Rng rng(0x600D);
  std::vector<std::pair<uint64_t, int>> fields;
  for (int i = 0; i < 500; ++i) {
    int w = 1 + static_cast<int>(rng.UniformInt(56));
    uint64_t v = rng.Next() & ((w == 64) ? ~0ull : ((uint64_t(1) << w) - 1));
    fields.push_back({v, w});
    bw.WriteBits(v, w);
  }
  bw.Flush();
  BitReader br(buf.span());
  for (const auto& [v, w] : fields) {
    ASSERT_EQ(br.ReadBitsUnchecked(w), v);
  }
  EXPECT_FALSE(br.overrun());
}

// Trivial one-bit-at-a-time reference implementation (the seed algorithm)
// for differential testing of the word-at-a-time engine.
struct RefBitWriter {
  Buffer* out;
  uint8_t acc = 0;
  int nacc = 0;
  void WriteBits(uint64_t v, int n) {
    for (int i = n - 1; i >= 0; --i) WriteBit((v >> i) & 1u);
  }
  void WriteBit(uint32_t bit) {
    acc = static_cast<uint8_t>((acc << 1) | (bit & 1u));
    if (++nacc == 8) {
      out->PushBack(acc);
      acc = 0;
      nacc = 0;
    }
  }
  void Flush() {
    if (nacc > 0) {
      out->PushBack(static_cast<uint8_t>(acc << (8 - nacc)));
      acc = 0;
      nacc = 0;
    }
  }
};

struct RefBitReader {
  ByteSpan in;
  size_t byte = 0;
  int nbit = 0;
  bool overrun = false;
  uint32_t ReadBit() {
    if (byte >= in.size()) {
      overrun = true;
      return 0;
    }
    uint32_t bit = (in[byte] >> (7 - nbit)) & 1u;
    if (++nbit == 8) {
      nbit = 0;
      ++byte;
    }
    return bit;
  }
  uint64_t ReadBits(int n) {
    uint64_t v = 0;
    for (int i = 0; i < n; ++i) v = (v << 1) | ReadBit();
    return v;
  }
};

TEST(BitIoTest, DifferentialAgainstReferenceImplementation) {
  Rng rng(0xD1FF);
  for (int round = 0; round < 20; ++round) {
    // Random field schedule, biased toward small widths like real coders.
    std::vector<std::pair<uint64_t, int>> fields;
    size_t total_bits = 0;
    for (int i = 0; i < 400; ++i) {
      int w = static_cast<int>(rng.UniformInt(65));  // 0..64 inclusive
      if (rng.UniformInt(3) == 0) w = static_cast<int>(rng.UniformInt(9));
      uint64_t v = rng.Next();
      fields.push_back({v, w});
      total_bits += w;
    }

    Buffer word_buf, ref_buf;
    BitWriter word(&word_buf);
    RefBitWriter ref{&ref_buf};
    for (const auto& [v, w] : fields) {
      word.WriteBits(v, w);
      ref.WriteBits(v, w);
    }
    word.Flush();
    ref.Flush();
    ASSERT_EQ(word_buf.size(), ref_buf.size());
    ASSERT_EQ(
        std::memcmp(word_buf.data(), ref_buf.data(), word_buf.size()), 0)
        << "writer streams diverged in round " << round;

    // Read the stream back with both readers, including a deliberate
    // overrun tail, and compare every value and the overrun flag.
    BitReader word_rd(word_buf.span());
    RefBitReader ref_rd{ref_buf.span()};
    for (const auto& [v, w] : fields) {
      (void)v;
      ASSERT_EQ(word_rd.ReadBits(w), ref_rd.ReadBits(w));
    }
    EXPECT_EQ(word_rd.bits_consumed(), total_bits);
    // Past-the-end behavior must match bit for bit as well.
    for (int i = 0; i < 3; ++i) {
      int w = 1 + static_cast<int>(rng.UniformInt(64));
      ASSERT_EQ(word_rd.ReadBits(w), ref_rd.ReadBits(w));
    }
    EXPECT_EQ(word_rd.overrun(), ref_rd.overrun);
  }
}

TEST(VarintTest, RoundTripBoundaries) {
  std::vector<uint64_t> values = {0,    1,    127,        128,
                                  255,  300,  16383,      16384,
                                  1u << 20, (1ull << 35), ~0ull};
  Buffer buf;
  for (uint64_t v : values) PutVarint64(&buf, v);
  size_t off = 0;
  for (uint64_t v : values) {
    uint64_t got = 0;
    ASSERT_TRUE(GetVarint64(buf.span(), &off, &got));
    EXPECT_EQ(got, v);
  }
  EXPECT_EQ(off, buf.size());
}

TEST(VarintTest, TruncatedInputFails) {
  Buffer buf;
  PutVarint64(&buf, 1ull << 40);
  uint64_t got;
  size_t off = 0;
  ByteSpan cut = buf.span().subspan(0, buf.size() - 1);
  EXPECT_FALSE(GetVarint64(cut, &off, &got));
}

TEST(FixedIntTest, RoundTrip) {
  Buffer buf;
  PutFixed<uint32_t>(&buf, 0xaabbccdd);
  PutFixed<uint16_t>(&buf, 0x1234);
  size_t off = 0;
  uint32_t a;
  uint16_t b;
  ASSERT_TRUE(GetFixed(buf.span(), &off, &a));
  ASSERT_TRUE(GetFixed(buf.span(), &off, &b));
  EXPECT_EQ(a, 0xaabbccddu);
  EXPECT_EQ(b, 0x1234u);
  uint32_t c;
  EXPECT_FALSE(GetFixed(buf.span(), &off, &c));
}

// --- float bits ------------------------------------------------------------

template <typename F>
class FloatBitsTypedTest : public ::testing::Test {};

using FloatTypes = ::testing::Types<float, double>;
TYPED_TEST_SUITE(FloatBitsTypedTest, FloatTypes);

TYPED_TEST(FloatBitsTypedTest, BitCastRoundTrip) {
  using F = TypeParam;
  for (F v : {F(0), F(1), F(-1), F(3.14159), F(-2.5e-10), F(1e30)}) {
    EXPECT_EQ(FromBits<F>(ToBits<F>(v)), v);
  }
}

TYPED_TEST(FloatBitsTypedTest, OrderedMappingPreservesOrder) {
  using F = TypeParam;
  std::vector<F> values = {F(-1e30), F(-3.5),  F(-1),   F(-1e-20), F(-0.0),
                           F(0),     F(1e-20), F(0.25), F(1),      F(7e12)};
  for (size_t i = 1; i < values.size(); ++i) {
    auto a = SignedToOrdered(ToBits<F>(values[i - 1]));
    auto b = SignedToOrdered(ToBits<F>(values[i]));
    EXPECT_LE(a, b) << values[i - 1] << " vs " << values[i];
  }
}

TYPED_TEST(FloatBitsTypedTest, OrderedMappingInverts) {
  using F = TypeParam;
  Rng rng(77);
  for (int i = 0; i < 1000; ++i) {
    auto bits = static_cast<FloatBitsT<F>>(rng.Next());
    EXPECT_EQ(OrderedToSigned(SignedToOrdered(bits)), bits);
  }
}

TEST(ZigZagTest, RoundTripAndSmallness) {
  for (int64_t v : {int64_t(0), int64_t(-1), int64_t(1), int64_t(-12345),
                    int64_t(1) << 40, -(int64_t(1) << 40)}) {
    EXPECT_EQ(ZigZagDecode64(ZigZagEncode64(v)), v);
  }
  EXPECT_EQ(ZigZagEncode64(0), 0u);
  EXPECT_EQ(ZigZagEncode64(-1), 1u);
  EXPECT_EQ(ZigZagEncode64(1), 2u);
  EXPECT_EQ(ZigZagDecode32(ZigZagEncode32(-77)), -77);
}

TEST(LeadingZerosTest, Definitions) {
  EXPECT_EQ(LeadingZeros64(0), 64);
  EXPECT_EQ(LeadingZeros64(1), 63);
  EXPECT_EQ(LeadingZeros64(~0ull), 0);
  EXPECT_EQ(LeadingZeros32(0), 32);
  EXPECT_EQ(TrailingZeros64(0), 64);
  EXPECT_EQ(TrailingZeros64(8), 3);
  EXPECT_EQ(TrailingZeros32(0), 32);
}

// --- rng ---------------------------------------------------------------

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, SeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, NormalMoments) {
  Rng rng(11);
  const int n = 200000;
  double sum = 0, sq = 0;
  for (int i = 0; i < n; ++i) {
    double x = rng.Normal();
    sum += x;
    sq += x * x;
  }
  double mean = sum / n;
  double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.03);
}

// --- entropy ---------------------------------------------------------------

TEST(EntropyTest, ConstantDataIsZero) {
  std::vector<uint8_t> data(4096, 0x41);
  EXPECT_DOUBLE_EQ(ByteEntropyBits(ByteSpan(data.data(), data.size())), 0.0);
}

TEST(EntropyTest, UniformBytesNearEight) {
  std::vector<uint8_t> data(1 << 16);
  Rng rng(3);
  for (auto& b : data) b = static_cast<uint8_t>(rng.Next());
  double h = ByteEntropyBits(ByteSpan(data.data(), data.size()));
  EXPECT_GT(h, 7.99);
  EXPECT_LE(h, 8.0);
}

TEST(EntropyTest, WordEntropyCountsDistinctWords) {
  // 4 distinct 32-bit words, equally frequent -> 2 bits.
  std::vector<uint32_t> words;
  for (int i = 0; i < 1000; ++i) {
    words.push_back(0x11111111u);
    words.push_back(0x22222222u);
    words.push_back(0x33333333u);
    words.push_back(0x44444444u);
  }
  double h = ShannonEntropyBits(AsBytes(words), 4);
  EXPECT_NEAR(h, 2.0, 1e-9);
}

TEST(EntropyTest, SampledPathIsDeterministic) {
  // Large 8-byte-word inputs take the sampled hash-histogram path;
  // the fixed-seed sampler must return the same estimate on every call.
  constexpr size_t kWords = (1 << 17) + 1111;  // past the exact limit
  std::vector<uint64_t> words(kWords);
  Rng rng(41);
  for (auto& w : words) w = rng.Next();
  double h1 = ShannonEntropyBits(AsBytes(words), 8);
  double h2 = ShannonEntropyBits(AsBytes(words), 8);
  EXPECT_EQ(h1, h2);  // bitwise identical, not just close
}

TEST(EntropyTest, SampledEstimateMatchesExactSmallAlphabet) {
  // A corpus over a small alphabet where the exact entropy is known in
  // closed form: 32 equiprobable 8-byte symbols -> exactly 5 bits. The
  // input is large enough to force sampling, and the sampled estimate
  // must pin the exact value closely.
  constexpr size_t kWords = (1 << 17) + 7;
  std::vector<uint64_t> words(kWords);
  Rng rng(42);
  for (auto& w : words) {
    // Both 32-bit halves equal h, h distinct per symbol (no carries).
    uint64_t h = 0x01010101ULL * (rng.UniformInt(32) + 1);
    w = (h << 32) | h;
  }
  double h8 = ShannonEntropyBits(AsBytes(words), 8);
  EXPECT_NEAR(h8, 5.0, 0.02);

  // Same corpus read as 4-byte words: each 8-byte symbol contributes
  // two identical 4-byte halves, so the alphabet is still 32 symbols
  // with the same distribution -> still ~5 bits, now with 2x the words.
  double h4 = ShannonEntropyBits(AsBytes(words), 4);
  EXPECT_NEAR(h4, 5.0, 0.02);
}

TEST(EntropyTest, SmallInputsStayExact) {
  // Below the sampling threshold the histogram is exact: 4 equiprobable
  // 8-byte symbols -> exactly 2 bits, no estimation error at all.
  std::vector<uint64_t> words(4096);
  for (size_t i = 0; i < words.size(); ++i) words[i] = 0xABCD + i % 4;
  EXPECT_NEAR(ShannonEntropyBits(AsBytes(words), 8), 2.0, 1e-12);
}

TEST(MeansTest, HarmonicAndArithmetic) {
  double v[3] = {1.0, 2.0, 4.0};
  EXPECT_NEAR(HarmonicMean(v, 3), 3.0 / (1.0 + 0.5 + 0.25), 1e-12);
  EXPECT_NEAR(ArithmeticMean(v, 3), 7.0 / 3.0, 1e-12);
  EXPECT_EQ(HarmonicMean(v, 0), 0.0);
  EXPECT_EQ(ArithmeticMean(v, 0), 0.0);
}

TEST(MeansTest, HarmonicSkipsNonPositive) {
  double v[3] = {0.0, 2.0, 2.0};
  EXPECT_NEAR(HarmonicMean(v, 3), 2.0, 1e-12);
}

// --- thread pool -----------------------------------------------------------

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&count] { count.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, ParallelForCoversRange) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(1000, [&hits](size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelRangesPartition) {
  ThreadPool pool(3);
  std::mutex mu;
  std::vector<std::pair<size_t, size_t>> ranges;
  pool.ParallelRanges(10, [&](size_t b, size_t e) {
    std::lock_guard<std::mutex> lock(mu);
    ranges.push_back({b, e});
  });
  size_t total = 0;
  std::set<size_t> seen;
  for (auto [b, e] : ranges) {
    for (size_t i = b; i < e; ++i) {
      EXPECT_TRUE(seen.insert(i).second) << "index covered twice";
      ++total;
    }
  }
  EXPECT_EQ(total, 10u);
}

TEST(ThreadPoolTest, ZeroElementsNoCrash) {
  ThreadPool pool(2);
  pool.ParallelFor(0, [](size_t) { FAIL(); });
}

TEST(ThreadPoolTest, SharedPoolCoversRangeFromManyCallers) {
  // Concurrent ParallelFor calls on the one shared pool must each join
  // exactly their own work.
  std::vector<std::thread> callers;
  std::atomic<int> failures{0};
  for (int t = 0; t < 4; ++t) {
    callers.emplace_back([&failures] {
      for (int round = 0; round < 20; ++round) {
        std::vector<std::atomic<int>> hits(257);
        ThreadPool::Shared().ParallelFor(
            hits.size(), [&hits](size_t i) { hits[i].fetch_add(1); });
        for (auto& h : hits) {
          if (h.load() != 1) ++failures;
        }
      }
    });
  }
  for (auto& c : callers) c.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(ThreadPoolTest, NestedParallelForRunsInline) {
  // A task that calls ParallelFor on its own pool must degrade to inline
  // execution rather than deadlock on the occupied workers.
  ThreadPool pool(2);
  std::atomic<int> inner_total{0};
  pool.ParallelFor(4, [&](size_t) {
    pool.ParallelFor(8, [&](size_t) { inner_total.fetch_add(1); });
  });
  EXPECT_EQ(inner_total.load(), 4 * 8);
}

TEST(ThreadPoolTest, MaxParallelismOneRunsInOrder) {
  ThreadPool pool(4);
  std::vector<size_t> order;
  pool.ParallelFor(
      10, [&order](size_t i) { order.push_back(i); },
      {/*grain=*/0, /*max_parallelism=*/1});
  ASSERT_EQ(order.size(), 10u);
  for (size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(ThreadPoolTest, ParallelForRethrowsTaskException) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.ParallelFor(100,
                       [](size_t i) {
                         if (i == 37) throw std::runtime_error("boom");
                       }),
      std::runtime_error);
}

TEST(ThreadPoolTest, ResolveThreadsClampsOnlyTheFallback) {
  EXPECT_EQ(ThreadPool::ResolveThreads(3), 3);  // explicit requests honoured
  EXPECT_EQ(ThreadPool::ResolveThreads(48), 48);
  EXPECT_EQ(ThreadPool::ResolveThreads(0), ThreadPool::DefaultThreads());
  EXPECT_EQ(ThreadPool::ResolveThreads(-1), ThreadPool::DefaultThreads());
  EXPECT_GE(ThreadPool::DefaultThreads(), 1);
}

// --- mem tracker -----------------------------------------------------------

TEST(MemTrackerTest, BufferAllocationsTracked) {
  auto& t = MemTracker::Global();
  t.ResetPeak();
  size_t before = t.current();
  {
    Buffer b(1 << 20);
    EXPECT_GE(t.current(), before + (1u << 20));
    EXPECT_GE(t.peak(), before + (1u << 20));
  }
  EXPECT_EQ(t.current(), before);
}

TEST(TimerTest, MeasuresElapsed) {
  Timer t;
  volatile double x = 0;
  // Plain assignment, not +=: compound assignment on volatile is deprecated
  // in C++20.
  for (int i = 0; i < 100000; ++i) x = x + i;
  EXPECT_GT(t.ElapsedSeconds(), 0.0);
  EXPECT_GT(t.ElapsedNanos(), 0u);
}

TEST(ThroughputTest, Computation) {
  EXPECT_DOUBLE_EQ(ThroughputGBps(2e9, 2.0), 1.0);
  EXPECT_DOUBLE_EQ(ThroughputGBps(100, 0.0), 0.0);
}

// ---------------------------------------------------------------------------
// fs: the durable-filesystem helpers under every on-disk writer
// ---------------------------------------------------------------------------

namespace {

std::string FsTestDir(const char* tag) {
  std::string dir = "/tmp/fcbench_fs_" + std::to_string(::getpid()) + "_" +
                    tag;
  EXPECT_TRUE(fs::CreateDir(dir).ok());
  return dir;
}

void FsTestCleanup(const std::string& dir) {
  auto names = fs::ListDir(dir);
  if (names.ok()) {
    for (const auto& n : names.value()) fs::RemoveFile(fs::JoinPath(dir, n));
  }
  ::rmdir(dir.c_str());
}

}  // namespace

TEST(FsTest, PathHelpers) {
  EXPECT_EQ(fs::DirOf("/a/b/c.col"), "/a/b");
  EXPECT_EQ(fs::DirOf("/top"), "/");
  EXPECT_EQ(fs::DirOf("bare"), ".");
  EXPECT_EQ(fs::JoinPath("/a/b", "c"), "/a/b/c");
  EXPECT_EQ(fs::JoinPath("/a/b/", "c"), "/a/b/c");
  EXPECT_TRUE(fs::IsTempPath("seg-000001.0.col.tmp"));
  EXPECT_TRUE(fs::IsTempPath("/x/y/MANIFEST.tmp"));
  EXPECT_FALSE(fs::IsTempPath("MANIFEST"));
  EXPECT_FALSE(fs::IsTempPath("tmp.col"));
}

TEST(FsTest, WriteFileAtomicPublishesWholeFilesOnly) {
  const std::string dir = FsTestDir("atomic");
  const std::string path = fs::JoinPath(dir, "blob");
  const uint8_t v1[] = {1, 2, 3};
  const uint8_t v2[] = {9, 8, 7, 6};
  ASSERT_TRUE(fs::WriteFileAtomic(path, ByteSpan(v1, 3)).ok());
  auto r = fs::ReadFile(path);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().ToVector(), (std::vector<uint8_t>{1, 2, 3}));
  // Overwrite goes through the same temp+rename path.
  ASSERT_TRUE(fs::WriteFileAtomic(path, ByteSpan(v2, 4), false).ok());
  r = fs::ReadFile(path);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().ToVector(), (std::vector<uint8_t>{9, 8, 7, 6}));
  EXPECT_TRUE(fs::FileExists(path));
  auto size = fs::FileSize(path);
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(size.value(), 4u);
  // A successful publish leaves no .tmp residue behind.
  auto names = fs::ListDir(dir);
  ASSERT_TRUE(names.ok());
  for (const auto& n : names.value()) EXPECT_FALSE(fs::IsTempPath(n)) << n;
  FsTestCleanup(dir);
}

TEST(FsTest, MissingPathsAreHandledGracefully) {
  const std::string missing = "/tmp/fcbench_fs_missing_" +
                              std::to_string(::getpid());
  EXPECT_FALSE(fs::ReadFile(missing).ok());
  EXPECT_FALSE(fs::FileExists(missing));
  EXPECT_FALSE(fs::FileSize(missing).ok());
  EXPECT_FALSE(fs::ListDir(missing).ok());
  // RemoveFile is idempotent cleanup: OK when nothing is there.
  EXPECT_TRUE(fs::RemoveFile(missing).ok());
  // CreateDir is likewise OK when the directory already exists.
  const std::string dir = FsTestDir("mkdir");
  EXPECT_TRUE(fs::CreateDir(dir).ok());
  FsTestCleanup(dir);
}

TEST(FsTest, MapReadOnlyMapsTheWholeFile) {
  const std::string dir = FsTestDir("map");
  const std::string path = fs::JoinPath(dir, "blob");
  const uint8_t v[] = {5, 4, 3, 2, 1};
  ASSERT_TRUE(fs::WriteFileAtomic(path, ByteSpan(v, 5), false).ok());
  auto m = fs::MapReadOnly(path);
  ASSERT_TRUE(m.ok()) << m.status().ToString();
  EXPECT_EQ(std::vector<uint8_t>(m.value().span().begin(),
                                 m.value().span().end()),
            (std::vector<uint8_t>{5, 4, 3, 2, 1}));
  // A move hands the mapping over and leaves the source empty.
  fs::MappedFile moved = std::move(m).TakeValue();
  EXPECT_EQ(moved.size(), 5u);
  fs::MappedFile other;
  other = std::move(moved);
  EXPECT_EQ(moved.size(), 0u);
  EXPECT_EQ(other.span()[0], 5);
  FsTestCleanup(dir);
}

TEST(FsTest, MapReadOnlyOfAnEmptyFileIsAnEmptySpan) {
  const std::string dir = FsTestDir("map_empty");
  const std::string path = fs::JoinPath(dir, "empty");
  ASSERT_TRUE(fs::WriteFileAtomic(path, ByteSpan(), false).ok());
  auto m = fs::MapReadOnly(path);
  ASSERT_TRUE(m.ok()) << m.status().ToString();
  EXPECT_EQ(m.value().size(), 0u);
  EXPECT_TRUE(m.value().span().empty());
  FsTestCleanup(dir);
}

TEST(FsTest, MapReadOnlyOfAMissingFileIsAnIoError) {
  const std::string missing = "/tmp/fcbench_fs_map_missing_" +
                              std::to_string(::getpid());
  auto m = fs::MapReadOnly(missing);
  ASSERT_FALSE(m.ok());
  EXPECT_EQ(m.status().code(), StatusCode::kIoError);
  EXPECT_NE(m.status().message().find(missing), std::string::npos)
      << m.status().ToString();
}

TEST(FsTest, MapReadOnlyFiresTheReadFailpoint) {
  const std::string dir = FsTestDir("map_fail");
  const std::string path = fs::JoinPath(dir, "blob");
  const uint8_t b = 7;
  ASSERT_TRUE(fs::WriteFileAtomic(path, ByteSpan(&b, 1), false).ok());
  ASSERT_TRUE(fail::FailPoints::Set("fs.read", "err").ok());
  auto failed = fs::MapReadOnly(path);
  fail::FailPoints::ClearAll();
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kIoError);
  EXPECT_NE(failed.status().message().find("fs.read"), std::string::npos)
      << failed.status().ToString();
  EXPECT_TRUE(fs::MapReadOnly(path).ok());
  FsTestCleanup(dir);
}

TEST(FsTest, MappingOutlivesUnlinkAndRenameOver) {
  // The contract the engine's open columns rely on: once mapped, the
  // bytes stay what they were, whatever later happens to the path.
  const std::string dir = FsTestDir("map_unlink");
  const std::string path = fs::JoinPath(dir, "blob");
  std::vector<uint8_t> v(3 * 4096 + 17);
  std::iota(v.begin(), v.end(), uint8_t{0});
  ASSERT_TRUE(fs::WriteFileAtomic(path, ByteSpan(v), false).ok());
  auto unlinked = fs::MapReadOnly(path);
  ASSERT_TRUE(unlinked.ok());
  ASSERT_TRUE(fs::RemoveFile(path).ok());
  EXPECT_FALSE(fs::FileExists(path));
  EXPECT_TRUE(std::equal(v.begin(), v.end(), unlinked.value().span().begin(),
                         unlinked.value().span().end()));

  ASSERT_TRUE(fs::WriteFileAtomic(path, ByteSpan(v), false).ok());
  auto replaced = fs::MapReadOnly(path);
  ASSERT_TRUE(replaced.ok());
  const uint8_t other[] = {42};
  ASSERT_TRUE(fs::WriteFileAtomic(path, ByteSpan(other, 1), false).ok());
  EXPECT_TRUE(std::equal(v.begin(), v.end(), replaced.value().span().begin(),
                         replaced.value().span().end()));
  FsTestCleanup(dir);
}

TEST(FsTest, ListDirReturnsSortedNames) {
  const std::string dir = FsTestDir("listdir");
  const uint8_t b = 0;
  for (const char* n : {"banana", "apple", "cherry"}) {
    ASSERT_TRUE(
        fs::WriteFileAtomic(fs::JoinPath(dir, n), ByteSpan(&b, 1), false)
            .ok());
  }
  auto names = fs::ListDir(dir);
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(names.value(),
            (std::vector<std::string>{"apple", "banana", "cherry"}));
  FsTestCleanup(dir);
}

TEST(FsTest, AppendFileAppendsAndTruncatesOnCreate) {
  const std::string dir = FsTestDir("append");
  const std::string path = fs::JoinPath(dir, "log");
  {
    auto f = fs::AppendFile::Create(path, /*durable=*/false);
    ASSERT_TRUE(f.ok());
    const uint8_t a[] = {1, 2};
    const uint8_t c[] = {3};
    ASSERT_TRUE(f.value().Append(ByteSpan(a, 2)).ok());
    ASSERT_TRUE(f.value().Append(ByteSpan(c, 1)).ok());
    EXPECT_EQ(f.value().offset(), 3u);
    ASSERT_TRUE(f.value().Sync().ok());
    ASSERT_TRUE(f.value().Close().ok());
  }
  auto r = fs::ReadFile(path);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().ToVector(), (std::vector<uint8_t>{1, 2, 3}));
  {
    // Create truncates: a WAL never appends to a possibly-torn file.
    auto f = fs::AppendFile::Create(path, false);
    ASSERT_TRUE(f.ok());
    const uint8_t n = 9;
    ASSERT_TRUE(f.value().Append(ByteSpan(&n, 1)).ok());
    ASSERT_TRUE(f.value().Close().ok());
  }
  r = fs::ReadFile(path);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().ToVector(), (std::vector<uint8_t>{9}));
  FsTestCleanup(dir);
}

uint64_t SizeOf(const std::string& path) {
  auto size = fs::FileSize(path);
  EXPECT_TRUE(size.ok()) << path;
  return size.ok() ? size.value() : 0;
}

TEST(FsTest, DurableAppendFileKeepsAZeroTailAndClosesAtItsLogicalSize) {
  const std::string dir = FsTestDir("zero_tail");
  const std::string path = fs::JoinPath(dir, "log");
  constexpr uint64_t kTail = fs::AppendFile::kZeroTailBytes;
  std::vector<uint8_t> want;
  {
    auto f = fs::AppendFile::Create(path, /*durable=*/true);
    ASSERT_TRUE(f.ok());
    std::vector<uint8_t> chunk(1000);
    for (size_t i = 0; i < chunk.size(); ++i) chunk[i] = uint8_t(i | 1);
    ASSERT_TRUE(f.value().Append(ByteSpan(chunk)).ok());
    want.insert(want.end(), chunk.begin(), chunk.end());
    EXPECT_EQ(SizeOf(path), 1000u);  // no tail before the first sync
    // The first sync writes zeros to the 1 MiB boundary; later syncs
    // overwrite them in place.
    ASSERT_TRUE(f.value().Sync().ok());
    EXPECT_EQ(SizeOf(path), kTail);
    ASSERT_TRUE(f.value().Append(ByteSpan(chunk)).ok());
    want.insert(want.end(), chunk.begin(), chunk.end());
    ASSERT_TRUE(f.value().Sync().ok());
    EXPECT_EQ(SizeOf(path), kTail);
    auto live = fs::ReadFile(path);
    ASSERT_TRUE(live.ok());
    EXPECT_TRUE(std::all_of(live.value().data() + 2000,
                            live.value().data() + kTail,
                            [](uint8_t b) { return b == 0; }));
    // Crossing the boundary moves the tail to the next one.
    std::vector<uint8_t> big(kTail, 7);
    ASSERT_TRUE(f.value().Append(ByteSpan(big)).ok());
    want.insert(want.end(), big.begin(), big.end());
    ASSERT_TRUE(f.value().Sync().ok());
    EXPECT_EQ(SizeOf(path), 2 * kTail);
    EXPECT_EQ(f.value().offset(), want.size());
    ASSERT_TRUE(f.value().Close().ok());
  }
  EXPECT_EQ(SizeOf(path), want.size());  // sealed: no zero tail
  auto r = fs::ReadFile(path);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().ToVector(), want);
  FsTestCleanup(dir);
}

TEST(FsTest, TruncateToDropsTheZeroTail) {
  const std::string dir = FsTestDir("truncate_tail");
  const std::string path = fs::JoinPath(dir, "log");
  auto f = fs::AppendFile::Create(path, /*durable=*/true);
  ASSERT_TRUE(f.ok());
  const std::vector<uint8_t> data(300, 5);
  ASSERT_TRUE(f.value().Append(ByteSpan(data)).ok());
  ASSERT_TRUE(f.value().Sync().ok());
  ASSERT_EQ(SizeOf(path), fs::AppendFile::kZeroTailBytes);
  ASSERT_TRUE(f.value().TruncateTo(100).ok());
  EXPECT_EQ(SizeOf(path), 100u);
  EXPECT_EQ(f.value().offset(), 100u);
  // The next sync rebuilds the tail from the new end.
  ASSERT_TRUE(f.value().Append(ByteSpan(data)).ok());
  ASSERT_TRUE(f.value().Sync().ok());
  EXPECT_EQ(SizeOf(path), fs::AppendFile::kZeroTailBytes);
  ASSERT_TRUE(f.value().Close().ok());
  EXPECT_EQ(SizeOf(path), 400u);
  FsTestCleanup(dir);
}

TEST(FsTest, NonDurableAppendFileHasNoZeroTail) {
  const std::string dir = FsTestDir("no_tail");
  const std::string path = fs::JoinPath(dir, "log");
  auto f = fs::AppendFile::Create(path, /*durable=*/false);
  ASSERT_TRUE(f.ok());
  const std::vector<uint8_t> data(300, 5);
  ASSERT_TRUE(f.value().Append(ByteSpan(data)).ok());
  ASSERT_TRUE(f.value().Sync().ok());
  EXPECT_EQ(SizeOf(path), 300u);
  ASSERT_TRUE(f.value().Close().ok());
  EXPECT_EQ(SizeOf(path), 300u);
  FsTestCleanup(dir);
}

}  // namespace
}  // namespace fcbench

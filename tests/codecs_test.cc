// Unit + property tests for the codec substrates (LZ4, Huffman, LZH,
// range coder, binary arithmetic coder).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "codecs/arith.h"
#include "codecs/fse.h"
#include "codecs/huffman.h"
#include "codecs/intcodec.h"
#include "codecs/lz4.h"
#include "codecs/lzh.h"
#include "codecs/range_coder.h"
#include "codec_reference.h"
#include "compressors/pfpc.h"
#include "compressors/transpose.h"
#include "util/bitio.h"
#include "util/entropy.h"
#include "util/rng.h"

namespace fcbench::codecs {
namespace {

// Pattern generators shared by the parameterized round-trip suites.
enum class Pattern {
  kEmpty,
  kTiny,
  kConstant,
  kRamp,
  kRepeated,
  kRandom,
  kTextLike,
  kFloatLike,
};

std::string PatternName(Pattern p) {
  switch (p) {
    case Pattern::kEmpty: return "Empty";
    case Pattern::kTiny: return "Tiny";
    case Pattern::kConstant: return "Constant";
    case Pattern::kRamp: return "Ramp";
    case Pattern::kRepeated: return "Repeated";
    case Pattern::kRandom: return "Random";
    case Pattern::kTextLike: return "TextLike";
    case Pattern::kFloatLike: return "FloatLike";
  }
  return "?";
}

std::vector<uint8_t> MakePattern(Pattern p, size_t n) {
  Rng rng(static_cast<uint64_t>(p) * 1000 + n);
  std::vector<uint8_t> data;
  switch (p) {
    case Pattern::kEmpty:
      return data;
    case Pattern::kTiny:
      data = {0x42, 0x43, 0x44};
      return data;
    case Pattern::kConstant:
      data.assign(n, 0x7f);
      return data;
    case Pattern::kRamp:
      data.resize(n);
      for (size_t i = 0; i < n; ++i) data[i] = static_cast<uint8_t>(i);
      return data;
    case Pattern::kRepeated: {
      const char* phrase = "floating-point compression benchmark ";
      size_t len = std::strlen(phrase);
      data.resize(n);
      for (size_t i = 0; i < n; ++i) data[i] = phrase[i % len];
      return data;
    }
    case Pattern::kRandom:
      data.resize(n);
      for (auto& b : data) b = static_cast<uint8_t>(rng.Next());
      return data;
    case Pattern::kTextLike:
      data.resize(n);
      for (auto& b : data) {
        // Zipf-ish distribution over a small alphabet.
        uint64_t r = rng.UniformInt(100);
        b = (r < 40) ? ' ' : (r < 70) ? 'e' : (r < 85) ? 't'
            : static_cast<uint8_t>('a' + rng.UniformInt(26));
      }
      return data;
    case Pattern::kFloatLike: {
      // Smooth single-precision series reinterpreted as bytes: the exponent
      // bytes repeat while mantissa bytes vary (the structure every studied
      // compressor exploits).
      size_t count = n / 4;
      data.resize(count * 4);
      double x = 1000.0;
      for (size_t i = 0; i < count; ++i) {
        x += rng.Normal() * 0.01;
        float f = static_cast<float>(x);
        std::memcpy(&data[i * 4], &f, 4);
      }
      return data;
    }
  }
  return data;
}

class CodecRoundTrip
    : public ::testing::TestWithParam<std::tuple<Pattern, size_t>> {};

TEST_P(CodecRoundTrip, Lz4) {
  auto [pattern, size] = GetParam();
  auto input = MakePattern(pattern, size);
  Buffer comp;
  Lz4FrameCompress(ByteSpan(input.data(), input.size()), &comp);
  Buffer decomp;
  ASSERT_TRUE(Lz4FrameDecompress(comp.span(), &decomp).ok())
      << PatternName(pattern) << " size=" << size;
  ASSERT_EQ(decomp.size(), input.size());
  if (!input.empty()) {  // memcmp with null pointers is UB even for n==0
    EXPECT_EQ(std::memcmp(decomp.data(), input.data(), input.size()), 0);
  }
}

TEST_P(CodecRoundTrip, Lz4ChainedMatcher) {
  auto [pattern, size] = GetParam();
  auto input = MakePattern(pattern, size);
  Lz4Codec codec(Lz4Codec::Options{.max_attempts = 16});
  Buffer comp;
  codec.Compress(ByteSpan(input.data(), input.size()), &comp);
  Buffer decomp;
  ASSERT_TRUE(codec.Decompress(comp.span(), input.size(), &decomp).ok());
  ASSERT_EQ(decomp.size(), input.size());
  if (!input.empty()) {  // memcmp with null pointers is UB even for n==0
    EXPECT_EQ(std::memcmp(decomp.data(), input.data(), input.size()), 0);
  }
}

TEST_P(CodecRoundTrip, Huffman) {
  auto [pattern, size] = GetParam();
  auto input = MakePattern(pattern, size);
  Buffer comp;
  HuffmanCodec::Compress(ByteSpan(input.data(), input.size()), &comp);
  Buffer decomp;
  size_t consumed = 0;
  ASSERT_TRUE(HuffmanCodec::Decompress(comp.span(), input.size(), &consumed,
                                       &decomp).ok());
  EXPECT_EQ(consumed, comp.size());
  ASSERT_EQ(decomp.size(), input.size());
  if (!input.empty()) {  // memcmp with null pointers is UB even for n==0
    EXPECT_EQ(std::memcmp(decomp.data(), input.data(), input.size()), 0);
  }
}

TEST_P(CodecRoundTrip, Lzh) {
  auto [pattern, size] = GetParam();
  auto input = MakePattern(pattern, size);
  Buffer comp;
  LzhCodec().Compress(ByteSpan(input.data(), input.size()), &comp);
  Buffer decomp;
  ASSERT_TRUE(LzhCodec::Decompress(comp.span(), input.size(), &decomp).ok());
  ASSERT_EQ(decomp.size(), input.size());
  if (!input.empty()) {  // memcmp with null pointers is UB even for n==0
    EXPECT_EQ(std::memcmp(decomp.data(), input.data(), input.size()), 0);
  }
}

TEST_P(CodecRoundTrip, Fse) {
  auto [pattern, size] = GetParam();
  auto input = MakePattern(pattern, size);
  Buffer comp;
  FseCodec::Compress(ByteSpan(input.data(), input.size()), &comp);
  Buffer decomp;
  size_t consumed = 0;
  ASSERT_TRUE(
      FseCodec::Decompress(comp.span(), input.size(), &consumed, &decomp)
          .ok())
      << PatternName(pattern) << " size=" << size;
  EXPECT_EQ(consumed, comp.size());
  ASSERT_EQ(decomp.size(), input.size());
  if (!input.empty()) {  // memcmp with null pointers is UB even for n==0
    EXPECT_EQ(std::memcmp(decomp.data(), input.data(), input.size()), 0);
  }
}

TEST_P(CodecRoundTrip, LzhHuffmanBackend) {
  auto [pattern, size] = GetParam();
  auto input = MakePattern(pattern, size);
  LzhCodec codec(LzhCodec::Options{.entropy = LzhCodec::Entropy::kHuffman});
  Buffer comp;
  codec.Compress(ByteSpan(input.data(), input.size()), &comp);
  Buffer decomp;
  ASSERT_TRUE(LzhCodec::Decompress(comp.span(), input.size(), &decomp).ok());
  ASSERT_EQ(decomp.size(), input.size());
  if (!input.empty()) {  // memcmp with null pointers is UB even for n==0
    EXPECT_EQ(std::memcmp(decomp.data(), input.data(), input.size()), 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllPatterns, CodecRoundTrip,
    ::testing::Combine(
        ::testing::Values(Pattern::kEmpty, Pattern::kTiny, Pattern::kConstant,
                          Pattern::kRamp, Pattern::kRepeated,
                          Pattern::kRandom, Pattern::kTextLike,
                          Pattern::kFloatLike),
        ::testing::Values(size_t(64), size_t(4096), size_t(100000))),
    [](const auto& param_info) {
      return PatternName(std::get<0>(param_info.param)) + "_" +
             std::to_string(std::get<1>(param_info.param));
    });

TEST(Lz4Test, CompressesRepetitiveData) {
  auto input = MakePattern(Pattern::kRepeated, 100000);
  Buffer comp;
  Lz4FrameCompress(ByteSpan(input.data(), input.size()), &comp);
  EXPECT_LT(comp.size(), input.size() / 10);
}

TEST(Lz4Test, RandomDataExpandsBoundedly) {
  auto input = MakePattern(Pattern::kRandom, 100000);
  Buffer comp;
  Lz4FrameCompress(ByteSpan(input.data(), input.size()), &comp);
  EXPECT_LT(comp.size(), input.size() + input.size() / 100 + 64);
}

TEST(Lz4Test, RejectsCorruptOffset) {
  auto input = MakePattern(Pattern::kRepeated, 10000);
  Buffer comp;
  Lz4FrameCompress(ByteSpan(input.data(), input.size()), &comp);
  // Flip bytes in the middle; decoder must not crash or overrun.
  for (size_t victim = 8; victim < comp.size(); victim += 97) {
    Buffer copy = Buffer::FromSpan(comp.span());
    copy.data()[victim] ^= 0xff;
    Buffer decomp;
    auto st = Lz4FrameDecompress(copy.span(), &decomp);
    // Either failure, or success producing the right size. We only require
    // memory safety plus size discipline.
    if (st.ok()) {
      EXPECT_EQ(decomp.size(), input.size());
    }
  }
}

TEST(Lz4Test, ChainedMatcherNeverWorseRatio) {
  auto input = MakePattern(Pattern::kTextLike, 65536);
  Buffer fast, chained;
  Lz4Codec(Lz4Codec::Options{.max_attempts = 1})
      .Compress(ByteSpan(input.data(), input.size()), &fast);
  Lz4Codec(Lz4Codec::Options{.max_attempts = 32})
      .Compress(ByteSpan(input.data(), input.size()), &chained);
  EXPECT_LE(chained.size(), fast.size() + 16);
}

TEST(HuffmanTest, NearEntropyOnSkewedData) {
  auto input = MakePattern(Pattern::kTextLike, 1 << 16);
  Buffer comp;
  HuffmanCodec::Compress(ByteSpan(input.data(), input.size()), &comp);
  double h = ByteEntropyBits(ByteSpan(input.data(), input.size()));
  double bits_per_byte = 8.0 * comp.size() / input.size();
  // Canonical Huffman is within 1 bit/symbol of entropy plus header cost.
  EXPECT_LT(bits_per_byte, h + 1.0 + 0.2);
  EXPECT_GE(bits_per_byte, h * 0.99);
}

TEST(HuffmanTest, CodeLengthsSatisfyKraft) {
  Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    uint64_t hist[256] = {0};
    int syms = 1 + static_cast<int>(rng.UniformInt(256));
    for (int s = 0; s < syms; ++s) {
      hist[s] = 1 + rng.UniformInt(100000);
    }
    uint8_t lengths[256];
    HuffmanCodec::BuildCodeLengths(hist, lengths);
    double kraft = 0.0;
    for (int s = 0; s < 256; ++s) {
      if (lengths[s] > 0) {
        EXPECT_LE(lengths[s], HuffmanCodec::kMaxCodeLen);
        kraft += std::pow(2.0, -lengths[s]);
      }
    }
    EXPECT_LE(kraft, 1.0 + 1e-9);
  }
}

TEST(HuffmanTest, CanonicalCodesArePrefixFree) {
  uint64_t hist[256] = {0};
  for (int s = 0; s < 256; ++s) hist[s] = (s % 7) + 1;
  uint8_t lengths[256];
  uint16_t codes[256];
  HuffmanCodec::BuildCodeLengths(hist, lengths);
  HuffmanCodec::AssignCanonicalCodes(lengths, codes);
  for (int a = 0; a < 256; ++a) {
    for (int b = a + 1; b < 256; ++b) {
      if (lengths[a] == 0 || lengths[b] == 0) continue;
      int la = lengths[a], lb = lengths[b];
      int l = std::min(la, lb);
      EXPECT_NE(codes[a] >> (la - l), codes[b] >> (lb - l))
          << "codes for " << a << " and " << b << " share a prefix";
    }
  }
}

TEST(LzhTest, BeatsLz4OnText) {
  auto input = MakePattern(Pattern::kTextLike, 1 << 18);
  Buffer lz4, lzh;
  Lz4FrameCompress(ByteSpan(input.data(), input.size()), &lz4);
  LzhCodec().Compress(ByteSpan(input.data(), input.size()), &lzh);
  EXPECT_LT(lzh.size(), lz4.size());
}

TEST(LzhTest, CorruptInputIsSafe) {
  auto input = MakePattern(Pattern::kTextLike, 20000);
  Buffer comp;
  LzhCodec().Compress(ByteSpan(input.data(), input.size()), &comp);
  for (size_t victim = 0; victim < comp.size(); victim += 131) {
    Buffer copy = Buffer::FromSpan(comp.span());
    copy.data()[victim] ^= 0x55;
    Buffer decomp;
    auto st = LzhCodec::Decompress(copy.span(), input.size(), &decomp);
    (void)st;  // must not crash; corruption detection is best-effort
  }
}

// --- FSE / tANS -------------------------------------------------------------

TEST(FseTest, NormalizationInvariants) {
  Rng rng(41);
  for (int trial = 0; trial < 50; ++trial) {
    uint64_t hist[256] = {0};
    int syms = 2 + static_cast<int>(rng.UniformInt(255));
    for (int s = 0; s < syms; ++s) {
      // Mix of rare and common symbols, including counts of exactly 1.
      hist[s] = 1 + rng.UniformInt(trial % 2 == 0 ? 10 : 1000000);
    }
    int table_log = FseCodec::ChooseTableLog(1 << 16, syms);
    uint16_t norm[256];
    FseCodec::NormalizeHistogram(hist, table_log, norm);
    uint32_t sum = 0;
    for (int s = 0; s < 256; ++s) {
      if (hist[s] > 0) {
        EXPECT_GE(norm[s], 1u) << "present symbol lost its slot";
      } else {
        EXPECT_EQ(norm[s], 0u) << "absent symbol gained probability";
      }
      sum += norm[s];
    }
    EXPECT_EQ(sum, 1u << table_log);
  }
}

TEST(FseTest, ChooseTableLogBounds) {
  // Must always hold every distinct symbol and stay within the cap.
  for (int distinct = 1; distinct <= 256; ++distinct) {
    for (size_t n : {size_t(1), size_t(300), size_t(1) << 20}) {
      int log = FseCodec::ChooseTableLog(n, distinct);
      EXPECT_GE(1 << log, distinct);
      EXPECT_LE(log, FseCodec::kMaxTableLog);
      EXPECT_GE(log, 1);
    }
  }
}

TEST(FseTest, DecodeTableCoversAllSubStates) {
  // Duda's construction: each symbol s with normalized frequency f must own
  // exactly the sub-states x in [f, 2f), i.e. new_state_base + 2^num_bits
  // ranges tile [0, table_size) per symbol.
  uint16_t norm[256] = {0};
  norm['a'] = 300;
  norm['b'] = 150;
  norm['c'] = 12;
  norm['d'] = 512 - 300 - 150 - 12;
  std::vector<FseCodec::DecodeEntry> table;
  ASSERT_TRUE(FseCodec::BuildDecodeTable(norm, 9, &table, nullptr).ok());
  ASSERT_EQ(table.size(), 512u);
  std::array<uint64_t, 256> seen_count{};
  std::array<uint64_t, 256> covered{};  // states covered per symbol
  for (const auto& e : table) {
    ++seen_count[e.symbol];
    covered[e.symbol] += uint64_t(1) << e.num_bits;
    EXPECT_LE(e.new_state_base + (uint64_t(1) << e.num_bits), 512u);
  }
  for (int s : {'a', 'b', 'c', 'd'}) {
    EXPECT_EQ(seen_count[s], norm[s]);
    EXPECT_EQ(covered[s], 512u) << "symbol " << char(s)
                                << " does not tile the state space";
  }
}

TEST(FseTest, RejectsBadFrequencySum) {
  uint16_t norm[256] = {0};
  norm[0] = 100;
  norm[1] = 100;  // sums to 200, not 256
  std::vector<FseCodec::DecodeEntry> table;
  EXPECT_FALSE(FseCodec::BuildDecodeTable(norm, 8, &table, nullptr).ok());
}

TEST(FseTest, BeatsHuffmanOnHighlySkewedData) {
  // 97% one symbol: entropy ~0.3 bits/byte. Huffman floors at 1 bit per
  // symbol; tANS codes in fractional bits and must land well below that.
  Rng rng(43);
  std::vector<uint8_t> input(1 << 17);
  for (auto& b : input) {
    b = rng.UniformInt(100) < 97 ? 0x20 : static_cast<uint8_t>(rng.Next());
  }
  Buffer fse, huff;
  FseCodec::Compress(ByteSpan(input.data(), input.size()), &fse);
  HuffmanCodec::Compress(ByteSpan(input.data(), input.size()), &huff);
  double fse_bits = 8.0 * fse.size() / input.size();
  double huff_bits = 8.0 * huff.size() / input.size();
  EXPECT_GE(huff_bits, 1.0);
  EXPECT_LT(fse_bits, 0.75);
  double h = ByteEntropyBits(ByteSpan(input.data(), input.size()));
  EXPECT_LT(fse_bits, h + 0.25) << "should be near the Shannon bound";
}

TEST(FseTest, NearEntropyOnTextLikeData) {
  auto input = MakePattern(Pattern::kTextLike, 1 << 16);
  Buffer comp;
  FseCodec::Compress(ByteSpan(input.data(), input.size()), &comp);
  double h = ByteEntropyBits(ByteSpan(input.data(), input.size()));
  double bits_per_byte = 8.0 * comp.size() / input.size();
  EXPECT_LT(bits_per_byte, h + 0.35);
  EXPECT_GE(bits_per_byte, h * 0.99);
}

TEST(FseTest, SingleSymbolUsesRleMode) {
  std::vector<uint8_t> input(100000, 0xab);
  Buffer comp;
  FseCodec::Compress(ByteSpan(input.data(), input.size()), &comp);
  EXPECT_LT(comp.size(), 16u);
  Buffer decomp;
  size_t consumed = 0;
  ASSERT_TRUE(
      FseCodec::Decompress(comp.span(), input.size(), &consumed, &decomp)
          .ok());
  ASSERT_EQ(decomp.size(), input.size());
  if (!input.empty()) {  // memcmp with null pointers is UB even for n==0
    EXPECT_EQ(std::memcmp(decomp.data(), input.data(), input.size()), 0);
  }
}

TEST(FseTest, RandomDataFallsBackToRaw) {
  auto input = MakePattern(Pattern::kRandom, 1 << 16);
  Buffer comp;
  FseCodec::Compress(ByteSpan(input.data(), input.size()), &comp);
  // Raw mode: 1 mode byte + varint + payload.
  EXPECT_LE(comp.size(), input.size() + 8);
  EXPECT_EQ(comp.data()[0], FseCodec::kRawMode);
}

TEST(FseTest, TrailingBytesNotConsumed) {
  auto input = MakePattern(Pattern::kTextLike, 5000);
  Buffer comp;
  FseCodec::Compress(ByteSpan(input.data(), input.size()), &comp);
  size_t frame = comp.size();
  comp.Append("garbage", 7);
  Buffer decomp;
  size_t consumed = 0;
  ASSERT_TRUE(
      FseCodec::Decompress(comp.span(), input.size(), &consumed, &decomp)
          .ok());
  EXPECT_EQ(consumed, frame);
}

TEST(FseTest, CorruptInputIsSafe) {
  auto input = MakePattern(Pattern::kTextLike, 20000);
  Buffer comp;
  FseCodec::Compress(ByteSpan(input.data(), input.size()), &comp);
  for (size_t victim = 0; victim < comp.size(); victim += 37) {
    Buffer copy = Buffer::FromSpan(comp.span());
    copy.data()[victim] ^= 0x41;
    Buffer decomp;
    size_t consumed = 0;
    auto st = FseCodec::Decompress(copy.span(), input.size(), &consumed,
                                   &decomp);
    (void)st;  // must not crash; the state check bounds all table reads
  }
  for (size_t len = 0; len < comp.size(); len += 11) {
    Buffer decomp;
    size_t consumed = 0;
    auto st = FseCodec::Decompress(comp.span().subspan(0, len), input.size(),
                                   &consumed, &decomp);
    (void)st;
  }
}

TEST(LzhTest, FseBackendNoWorseThanHuffmanOnSkewedTokens) {
  // Smooth float-like data yields heavily skewed token streams where the
  // fractional-bit advantage of FSE shows up end to end.
  auto input = MakePattern(Pattern::kFloatLike, 1 << 18);
  Buffer fse_out, huff_out;
  LzhCodec(LzhCodec::Options{.entropy = LzhCodec::Entropy::kFse})
      .Compress(ByteSpan(input.data(), input.size()), &fse_out);
  LzhCodec(LzhCodec::Options{.entropy = LzhCodec::Entropy::kHuffman})
      .Compress(ByteSpan(input.data(), input.size()), &huff_out);
  EXPECT_LE(fse_out.size(), huff_out.size() + huff_out.size() / 50);
}

// --- hostile declared lengths -------------------------------------------

bool IsCorruption(const Status& st) {
  return st.code() == StatusCode::kCorruption;
}

// A frame header (varint orig, varint num_seq, entropy byte) and four
// empty FSE raw streams: 17 bytes that declare 2^46 bytes, which the
// decoder used to allocate before noticing that nothing fills them.
TEST(LzhTest, DeclaredSizeIsCheckedBeforeAllocating) {
  Buffer frame;
  PutVarint64(&frame, uint64_t(1) << 46);
  PutVarint64(&frame, 0);
  frame.PushBack(static_cast<uint8_t>(LzhCodec::Entropy::kFse));
  for (int s = 0; s < 4; ++s) {
    frame.PushBack(FseCodec::kRawMode);
    PutVarint64(&frame, 0);
  }
  ASSERT_EQ(frame.size(), 17u);
  Buffer out;
  Status st = LzhCodec::Decompress(frame.span(), 4096, &out);
  EXPECT_EQ(st.code(), StatusCode::kCorruption) << st.ToString();
  EXPECT_TRUE(out.empty());
}

TEST(LzhTest, SequenceCountBeyondTheSizeIsRejected) {
  Buffer frame;
  PutVarint64(&frame, 8);
  PutVarint64(&frame, uint64_t(1) << 40);  // > 8 / kMinMatch sequences
  frame.PushBack(static_cast<uint8_t>(LzhCodec::Entropy::kFse));
  Buffer out;
  EXPECT_TRUE(IsCorruption(LzhCodec::Decompress(frame.span(), 8, &out)));
}

TEST(LzhTest, MatchAndLiteralLengthsNearSizeMaxAreRejected) {
  // One sequence whose literal run (and, separately, match length) is
  // 2^64 - 1: the bounds checks must not wrap.
  auto frame_with = [](uint64_t lit_run, uint64_t match_code) {
    Buffer frame;
    PutVarint64(&frame, 64);
    PutVarint64(&frame, 1);
    frame.PushBack(static_cast<uint8_t>(LzhCodec::Entropy::kFse));
    for (uint64_t v : {lit_run, match_code, uint64_t(1)}) {
      Buffer varint;
      PutVarint64(&varint, v);
      frame.PushBack(FseCodec::kRawMode);
      PutVarint64(&frame, varint.size());
      frame.Append(varint.span());
    }
    frame.PushBack(FseCodec::kRawMode);
    PutVarint64(&frame, 8);
    frame.Append("literals", 8);
    return frame;
  };
  for (const auto& [lit_run, match_code] :
       {std::pair<uint64_t, uint64_t>{~uint64_t(0), 0},
        {1, ~uint64_t(0)},
        {1, ~uint64_t(0) - 2}}) {
    Buffer frame = frame_with(lit_run, match_code);
    Buffer out;
    EXPECT_TRUE(IsCorruption(LzhCodec::Decompress(frame.span(), 64, &out)))
        << lit_run << " " << match_code;
  }
}

TEST(FseTest, RawLengthNearSizeMaxIsRejected) {
  // n = 2^64 - 1 with one payload byte: `off + n` wraps to a small value.
  Buffer stream;
  stream.PushBack(FseCodec::kRawMode);
  PutVarint64(&stream, ~uint64_t(0));
  stream.PushBack(0x55);
  Buffer out;
  size_t consumed = 0;
  EXPECT_TRUE(IsCorruption(
      FseCodec::Decompress(stream.span(), ~size_t(0), &consumed, &out)));
  EXPECT_TRUE(out.empty());
}

TEST(FseTest, DeclaredLengthsAreBoundedByTheCaller) {
  Buffer rle;
  rle.PushBack(FseCodec::kRleMode);
  PutVarint64(&rle, uint64_t(1) << 50);
  rle.PushBack(0x20);

  // An FSE stream of one all-but-certain symbol: its transitions cost no
  // bits, so a short payload decodes to any declared length.
  std::vector<uint8_t> skewed(4096, 'a');
  skewed[7] = 'b';
  Buffer fse;
  FseCodec::Compress(ByteSpan(skewed.data(), skewed.size()), &fse);
  ASSERT_EQ(fse.data()[0], FseCodec::kFseMode);

  for (const Buffer* stream : {&rle, &fse}) {
    Buffer out;
    size_t consumed = 0;
    EXPECT_TRUE(IsCorruption(
        FseCodec::Decompress(stream->span(), 4095, &consumed, &out)));
    EXPECT_TRUE(out.empty());
  }
  Buffer out;
  size_t consumed = 0;
  ASSERT_TRUE(FseCodec::Decompress(fse.span(), 4096, &consumed, &out).ok());
  EXPECT_EQ(out.ToVector(), skewed);
}

TEST(HuffmanTest, DeclaredLengthsAreBoundedByTheCaller) {
  Buffer raw;
  raw.PushBack(HuffmanCodec::kRawMode);
  PutVarint64(&raw, ~uint64_t(0));
  raw.PushBack(0x55);
  Buffer out;
  size_t consumed = 0;
  EXPECT_TRUE(IsCorruption(
      HuffmanCodec::Decompress(raw.span(), ~size_t(0), &consumed, &out)));
  EXPECT_TRUE(IsCorruption(
      HuffmanCodec::Decompress(raw.span(), 16, &consumed, &out)));
  EXPECT_TRUE(out.empty());
}

// --- reference oracles ------------------------------------------------------
//
// The fast matchers, the closed-form normalization repair, the two-pass
// FSE encoder and the f32/f64 transposes must reproduce the plain
// implementations in codec_reference.h byte for byte.

/// Inputs on which matcher shortcuts could diverge: every length around
/// the LZ4 end-of-block limits, all-zero and short-period runs (long
/// chains of equal candidates, matches reaching the end),
/// incompressible bytes, bitshuffled float planes and random mixtures.
std::vector<std::vector<uint8_t>> OracleInputs() {
  std::vector<std::vector<uint8_t>> inputs;
  Rng rng(2024);
  for (size_t n = 0; n <= 64; ++n) {
    inputs.emplace_back(n, 0);
    std::vector<uint8_t> periodic(n);
    for (size_t i = 0; i < n; ++i) periodic[i] = static_cast<uint8_t>(i % 3);
    inputs.push_back(periodic);
    std::vector<uint8_t> noise(n);
    for (auto& b : noise) b = static_cast<uint8_t>(rng.Next());
    inputs.push_back(noise);
  }
  for (size_t period = 1; period <= 8; ++period) {
    for (size_t n : {size_t(4096), size_t(70000)}) {
      std::vector<uint8_t> runs(n);
      for (size_t i = 0; i < n; ++i) {
        runs[i] = static_cast<uint8_t>(0x30 + i % period);
      }
      inputs.push_back(runs);
    }
  }
  inputs.emplace_back(100000, 0);
  {
    std::vector<uint8_t> noise(1 << 17);
    for (auto& b : noise) b = static_cast<uint8_t>(rng.Next());
    inputs.push_back(noise);
  }
  for (size_t esize : {size_t(4), size_t(8)}) {
    // Bitshuffled 4 KiB blocks of a smooth float series.
    std::vector<uint8_t> raw = MakePattern(Pattern::kFloatLike, 4096);
    if (esize == 8) {
      double x = 1000.0;
      for (size_t i = 0; i < raw.size() / 8; ++i) {
        x += rng.Normal() * 0.01;
        std::memcpy(&raw[i * 8], &x, 8);
      }
    }
    std::vector<uint8_t> planes(raw.size());
    reference::BitTranspose(raw.data(), planes.data(), raw.size() / esize,
                            esize);
    inputs.push_back(planes);
  }
  for (int trial = 0; trial < 40; ++trial) {
    // Random mixtures: a small alphabet, copied back-references and
    // zero runs at random lengths.
    const size_t n = 1 + rng.UniformInt(trial < 30 ? 5000 : 200000);
    const uint64_t alphabet = 1 + rng.UniformInt(trial % 4 == 0 ? 255 : 6);
    std::vector<uint8_t> v;
    while (v.size() < n) {
      switch (rng.UniformInt(3)) {
        case 0:
          v.push_back(static_cast<uint8_t>(rng.UniformInt(alphabet)));
          break;
        case 1:
          if (!v.empty()) {
            const size_t back = 1 + rng.UniformInt(std::min<size_t>(
                                        v.size(), trial % 2 ? 70000 : 64));
            const size_t len = 1 + rng.UniformInt(300);
            for (size_t k = 0; k < len; ++k) v.push_back(v[v.size() - back]);
          }
          break;
        default:
          v.insert(v.end(), rng.UniformInt(100), 0);
      }
    }
    v.resize(n);
    inputs.push_back(v);
  }
  for (Pattern p : {Pattern::kConstant, Pattern::kRamp, Pattern::kRepeated,
                    Pattern::kTextLike, Pattern::kFloatLike}) {
    inputs.push_back(MakePattern(p, 100000));
  }
  return inputs;
}

TEST(Lz4OracleTest, MatchesByteAtATimeReference) {
  for (const auto& in : OracleInputs()) {
    const ByteSpan span(in.data(), in.size());
    for (int attempts : {1, 2, 4, 32}) {
      Buffer want, got;
      reference::Lz4Compress(span, attempts, &want);
      Lz4Codec(Lz4Codec::Options{.max_attempts = attempts}).Compress(span,
                                                                     &got);
      ASSERT_EQ(got.ToVector(), want.ToVector())
          << "n=" << in.size() << " attempts=" << attempts;
    }
  }
}

TEST(LzhOracleTest, MatchesByteAtATimeReference) {
  for (const auto& in : OracleInputs()) {
    const ByteSpan span(in.data(), in.size());
    for (auto entropy :
         {LzhCodec::Entropy::kFse, LzhCodec::Entropy::kHuffman}) {
      for (int max_chain : {1, 32}) {
        const LzhCodec::Options opts{.max_chain = max_chain,
                                     .window_log = max_chain == 1 ? 10 : 20,
                                     .entropy = entropy};
        Buffer want, got;
        reference::LzhCompress(span, opts, &want);
        LzhCodec(opts).Compress(span, &got);
        ASSERT_EQ(got.ToVector(), want.ToVector())
            << "n=" << in.size() << " chain=" << max_chain
            << " entropy=" << static_cast<int>(entropy);
      }
    }
  }
}

TEST(FseOracleTest, EncoderMatchesStagedChunkReference) {
  for (const auto& in : OracleInputs()) {
    Buffer want, got;
    reference::FseCompress(ByteSpan(in.data(), in.size()), &want);
    FseCodec::Compress(ByteSpan(in.data(), in.size()), &got);
    ASSERT_EQ(got.ToVector(), want.ToVector()) << "n=" << in.size();
  }
  // Skewed inputs over every table_log ChooseTableLog can pick.
  Rng rng(77);
  for (size_t n : {size_t(2), size_t(3), size_t(17), size_t(300),
                   size_t(5000), size_t(1) << 16}) {
    for (int skew : {1, 50, 97}) {
      std::vector<uint8_t> v(n);
      for (auto& b : v) {
        b = rng.UniformInt(100) < static_cast<uint64_t>(skew)
                ? 7
                : static_cast<uint8_t>(rng.UniformInt(1 + rng.UniformInt(256)));
      }
      Buffer want, got;
      reference::FseCompress(ByteSpan(v.data(), v.size()), &want);
      FseCodec::Compress(ByteSpan(v.data(), v.size()), &got);
      ASSERT_EQ(got.ToVector(), want.ToVector()) << n << " " << skew;
    }
  }
}

TEST(FseOracleTest, NormalizationMatchesOneStepRepair) {
  Rng rng(99);
  int grew = 0, shrank = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    uint64_t hist[256] = {0};
    const int syms = 2 + static_cast<int>(rng.UniformInt(255));
    switch (trial % 4) {
      case 0:  // many symbols of count 1 next to a few heavy ones:
               // rounding up to 1 oversubscribes the table
        for (int s = 0; s < syms; ++s) {
          hist[rng.UniformInt(256)] = s < 3 ? 1 + rng.UniformInt(1 << 20) : 1;
        }
        break;
      case 1:  // near-equal counts that all round down: undersubscribed
        for (int s = 0; s < syms; ++s) {
          hist[s] = 1000 + rng.UniformInt(3);
        }
        break;
      case 2:  // ties on the largest count and on the largest norm
        for (int s = 0; s < syms; ++s) hist[s] = s % 2 ? 5000 : 1;
        break;
      default:
        for (int s = 0; s < syms; ++s) {
          hist[rng.UniformInt(256)] =
              rng.UniformInt(1 + rng.UniformInt(1000000));
        }
    }
    int distinct = 0;
    uint64_t total = 0;
    for (uint64_t h : hist) {
      distinct += h > 0;
      total += h;
    }
    if (distinct < 2) continue;
    const int min_log = FseCodec::ChooseTableLog(1, distinct);
    for (int table_log = min_log; table_log <= FseCodec::kMaxTableLog;
         table_log += 1 + static_cast<int>(rng.UniformInt(3))) {
      uint16_t want[256], got[256];
      reference::NormalizeHistogram(hist, table_log, want);
      FseCodec::NormalizeHistogram(hist, table_log, got);
      ASSERT_EQ(std::vector<uint16_t>(got, got + 256),
                std::vector<uint16_t>(want, want + 256))
          << "trial " << trial << " table_log " << table_log;
      uint64_t first_pass = 0;
      for (int s = 0; s < 256; ++s) {
        if (hist[s] == 0) continue;
        first_pass += std::max<uint64_t>(
            1, (hist[s] * (uint64_t(1) << table_log) + total / 2) / total);
      }
      grew += first_pass < (uint64_t(1) << table_log);
      shrank += first_pass > (uint64_t(1) << table_log);
    }
  }
  // Both repair directions were exercised, many times.
  EXPECT_GT(grew, 100);
  EXPECT_GT(shrank, 100);
}

TEST(TransposeOracleTest, FastPathsMatchGenericLoop) {
  Rng rng(5);
  for (size_t esize : {size_t(4), size_t(8)}) {
    // Whole 8-group blocks plus every tail length, up to bitshuffle's
    // 4 KiB blocks and beyond.
    for (size_t groups = 0; groups <= 80; ++groups) {
      for (size_t count : {groups * 8, (groups * 8 * 8 + 8) / 8 * 8}) {
        std::vector<uint8_t> src(count * esize);
        for (auto& b : src) b = static_cast<uint8_t>(rng.Next());
        std::vector<uint8_t> want(src.size(), 0xAA), got(src.size(), 0x55);
        reference::BitTranspose(src.data(), want.data(), count, esize);
        compressors::BitTranspose(src.data(), got.data(), count, esize);
        ASSERT_EQ(got, want) << "esize=" << esize << " count=" << count;
      }
    }
  }
}

TEST(TransposeOracleTest, UntransposeMatchesGenericLoop) {
  Rng rng(6);
  for (size_t esize : {size_t(2), size_t(4), size_t(8)}) {
    // Every group count up to 80: whole 64-element blocks, and counts
    // that leave 1-7 tail groups after them.
    for (size_t groups = 0; groups <= 80; ++groups) {
      const size_t count = groups * 8;
      std::vector<uint8_t> planes(count * esize);
      for (auto& b : planes) b = static_cast<uint8_t>(rng.Next());
      std::vector<uint8_t> want(planes.size(), 0xAA);
      std::vector<uint8_t> got(planes.size(), 0x55);
      reference::BitUntranspose(planes.data(), want.data(), count, esize);
      compressors::BitUntranspose(planes.data(), got.data(), count, esize);
      ASSERT_EQ(got, want) << "esize=" << esize << " count=" << count;
      std::vector<uint8_t> back(planes.size());
      compressors::BitTranspose(got.data(), back.data(), count, esize);
      ASSERT_EQ(back, planes) << "esize=" << esize << " count=" << count;
    }
  }
}

/// Decodes `block` with Lz4Codec::DecompressTo into a buffer with 16
/// guard bytes behind the output, checks the guard, and compares status
/// and bytes with the byte-at-a-time reference.
void ExpectLz4DecodeMatchesReference(ByteSpan block, size_t size) {
  std::vector<uint8_t> want;
  const bool want_ok = reference::Lz4Decompress(block, size, &want);
  std::vector<uint8_t> got(size + 16, 0xEE);
  Status st = Lz4Codec().DecompressTo(block, size, got.data());
  ASSERT_EQ(st.ok(), want_ok) << st.ToString() << " size=" << size;
  ASSERT_EQ(std::vector<uint8_t>(got.begin() + size, got.end()),
            std::vector<uint8_t>(16, 0xEE))
      << "wrote past decompressed_size " << size;
  if (want_ok) {
    got.resize(size);
    ASSERT_EQ(got, want) << "size=" << size;
  }
}

TEST(Lz4OracleTest, DecoderMatchesByteAtATimeReference) {
  Rng rng(8);
  // Hand-built blocks: 16 literals, one match at every offset 1..16 and
  // length 4..27, then 0-7 closing literals (none: the block ends on the
  // match), so each match ends 0-7 bytes before the end of the output.
  for (size_t offset = 1; offset <= 16; ++offset) {
    for (size_t match_len = 4; match_len < 28; ++match_len) {
      for (size_t last = 0; last < 8; ++last) {
        Buffer block;
        block.PushBack(static_cast<uint8_t>(0xF0 | (match_len - 4)));
        block.PushBack(1);  // 15 + 1 literals
        for (int i = 0; i < 16; ++i) {
          block.PushBack(static_cast<uint8_t>(rng.Next()));
        }
        block.PushBack(static_cast<uint8_t>(offset));
        block.PushBack(0);
        if (match_len - 4 >= 15) {
          block.PushBack(static_cast<uint8_t>(match_len - 4 - 15));
        }
        if (last > 0) {
          block.PushBack(static_cast<uint8_t>(last << 4));
          for (size_t i = 0; i < last; ++i) {
            block.PushBack(static_cast<uint8_t>(rng.Next()));
          }
        }
        const size_t size = 16 + match_len + last;
        ExpectLz4DecodeMatchesReference(block.span(), size);
        // A declared size one short fails in both.
        ExpectLz4DecodeMatchesReference(block.span(), size - 1);
      }
    }
  }
  // Every oracle input's block, whole and truncated.
  for (const auto& in : OracleInputs()) {
    Buffer block;
    Lz4Codec().Compress(ByteSpan(in.data(), in.size()), &block);
    ExpectLz4DecodeMatchesReference(block.span(), in.size());
    for (size_t cut = 1; cut < block.size(); cut += block.size() / 7 + 1) {
      ExpectLz4DecodeMatchesReference(block.span().subspan(0, cut),
                                      in.size());
    }
  }
}

TEST(PfpcOracleTest, DecoderMatchesPerByteResidualReference) {
  // Streams whose residue ends at every distance from its last 8 bytes:
  // 0-141 words of data that keeps 0-8 residual bytes per word, and f32
  // counts 0-141, the odd ones with a 4-byte tail after the words.
  Rng rng(9);
  for (int threads : {1, 3}) {
    CompressorConfig cfg;
    cfg.threads = threads;
    compressors::PfpcCompressor pfpc(cfg);
    for (DType dtype : {DType::kFloat64, DType::kFloat32}) {
      for (size_t count = 0; count <= 141; ++count) {
        const size_t esize = DTypeSize(dtype);
        std::vector<uint8_t> raw(count * esize);
        uint64_t w = rng.Next();
        for (size_t i = 0; i < raw.size(); i += 8) {
          // Change the low 0-8 bytes of a slowly moving word.
          const size_t noise = rng.UniformInt(9);
          if (noise > 0) w ^= rng.Next() >> (64 - 8 * noise);
          std::memcpy(&raw[i], &w, std::min<size_t>(8, raw.size() - i));
        }
        DataDesc desc;
        desc.dtype = dtype;
        desc.extent = {count};
        Buffer stream;
        ASSERT_TRUE(
            pfpc.Compress(ByteSpan(raw.data(), raw.size()), desc, &stream)
                .ok());
        std::vector<uint8_t> want;
        ASSERT_TRUE(
            reference::PfpcDecompress(stream.span(), raw.size() / 8, &want));
        ASSERT_EQ(want, raw) << "count=" << count;
        Buffer got;
        ASSERT_TRUE(pfpc.Decompress(stream.span(), desc, &got).ok());
        ASSERT_EQ(got.ToVector(), want)
            << "threads=" << threads << " count=" << count;
      }
    }
  }
}

// --- integer codecs ---------------------------------------------------------

TEST(ZigZagTest, RoundTripExtremes) {
  for (int64_t v : {int64_t(0), int64_t(-1), int64_t(1),
                    std::numeric_limits<int64_t>::max(),
                    std::numeric_limits<int64_t>::min(), int64_t(-123456789),
                    int64_t(987654321)}) {
    EXPECT_EQ(ZigZagDecode(ZigZagEncode(v)), v);
  }
  // Small magnitudes map to small codes (the property delta coders rely on).
  EXPECT_EQ(ZigZagEncode(0), 0u);
  EXPECT_EQ(ZigZagEncode(-1), 1u);
  EXPECT_EQ(ZigZagEncode(1), 2u);
  EXPECT_EQ(ZigZagEncode(-2), 3u);
}

TEST(DeltaTest, RoundTripIsIdentity) {
  Rng rng(47);
  std::vector<uint64_t> in(10000);
  for (auto& v : in) v = rng.Next();
  std::vector<uint64_t> delta(in.size()), back(in.size());
  DeltaEncode(in.data(), in.size(), delta.data());
  DeltaDecode(delta.data(), delta.size(), back.data());
  EXPECT_EQ(back, in);
}

TEST(RleTest, RoundTripAndRatioOnRuns) {
  std::vector<uint8_t> input;
  for (int run = 0; run < 100; ++run) {
    input.insert(input.end(), 500, static_cast<uint8_t>(run));
  }
  Buffer comp;
  RleCodec::Compress(ByteSpan(input.data(), input.size()), &comp);
  EXPECT_LT(comp.size(), input.size() / 50);
  Buffer decomp;
  size_t consumed = 0;
  ASSERT_TRUE(RleCodec::Decompress(comp.span(), &consumed, &decomp).ok());
  EXPECT_EQ(consumed, comp.size());
  ASSERT_EQ(decomp.size(), input.size());
  if (!input.empty()) {  // memcmp with null pointers is UB even for n==0
    EXPECT_EQ(std::memcmp(decomp.data(), input.data(), input.size()), 0);
  }
}

TEST(RleTest, CorruptRunRejected) {
  Buffer comp;
  std::vector<uint8_t> input(1000, 7);
  RleCodec::Compress(ByteSpan(input.data(), input.size()), &comp);
  // Grow the declared run beyond the declared total: must error, not write
  // out of bounds.
  Buffer bad;
  PutVarint64(&bad, 10);    // claims 10 bytes
  PutVarint64(&bad, 4000);  // run of 4000
  bad.PushBack(9);
  Buffer decomp;
  size_t consumed = 0;
  EXPECT_FALSE(RleCodec::Decompress(bad.span(), &consumed, &decomp).ok());
}

class Simple8bRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(Simple8bRoundTrip, Pattern) {
  Rng rng(100 + GetParam());
  std::vector<uint64_t> values;
  switch (GetParam()) {
    case 0:  // all zeros (240-per-word selector)
      values.assign(1000, 0);
      break;
    case 1:  // small values
      values.resize(1000);
      for (auto& v : values) v = rng.UniformInt(16);
      break;
    case 2:  // mixed magnitudes
      values.resize(1000);
      for (auto& v : values) {
        v = (rng.UniformInt(10) == 0) ? rng.Next() >> 4 : rng.UniformInt(100);
      }
      break;
    case 3:  // escape path: values above 2^60
      values.resize(100);
      for (auto& v : values) v = (uint64_t(1) << 60) + rng.UniformInt(1000);
      break;
    case 4:  // boundary: exactly 2^60 - 1 (largest packable)
      values.assign(7, (uint64_t(1) << 60) - 1);
      break;
    case 5:  // empty
      break;
    case 6:  // single value
      values = {42};
      break;
  }
  Buffer comp;
  Simple8bCodec::Compress(values, &comp);
  std::vector<uint64_t> back;
  size_t consumed = 0;
  ASSERT_TRUE(Simple8bCodec::Decompress(comp.span(), &consumed, &back).ok());
  EXPECT_EQ(consumed, comp.size());
  EXPECT_EQ(back, values);
}

INSTANTIATE_TEST_SUITE_P(AllPatterns, Simple8bRoundTrip,
                         ::testing::Range(0, 7));

TEST(Simple8bTest, ZerosPackDensely) {
  std::vector<uint64_t> zeros(2400, 0);
  Buffer comp;
  Simple8bCodec::Compress(zeros, &comp);
  // 2400 zeros = 10 words of 240 + header: far below one byte per value.
  EXPECT_LT(comp.size(), 120u);
}

TEST(TimestampCodecTest, FixedIntervalCompressesExtremely) {
  // The Gorilla §3.4 observation: fixed-interval timestamps have
  // delta-of-delta == 0 almost everywhere.
  std::vector<int64_t> ts(100000);
  for (size_t i = 0; i < ts.size(); ++i) {
    ts[i] = 1600000000000 + static_cast<int64_t>(i) * 1000;
  }
  Buffer comp;
  TimestampCodec::Compress(ts, &comp);
  double ratio = double(ts.size() * 8) / comp.size();
  EXPECT_GT(ratio, 100.0);
  std::vector<int64_t> back;
  size_t consumed = 0;
  ASSERT_TRUE(TimestampCodec::Decompress(comp.span(), &consumed, &back).ok());
  EXPECT_EQ(back, ts);
}

TEST(TimestampCodecTest, JitteredAndRandomRoundTrip) {
  Rng rng(53);
  std::vector<int64_t> jitter(5000), random(5000);
  int64_t t = 0;
  for (auto& v : jitter) {
    t += 1000 + static_cast<int64_t>(rng.UniformInt(7)) - 3;
    v = t;
  }
  for (auto& v : random) v = static_cast<int64_t>(rng.Next());
  for (const auto& ts : {jitter, random}) {
    Buffer comp;
    TimestampCodec::Compress(ts, &comp);
    std::vector<int64_t> back;
    size_t consumed = 0;
    ASSERT_TRUE(
        TimestampCodec::Decompress(comp.span(), &consumed, &back).ok());
    EXPECT_EQ(back, ts);
  }
}

// --- range coder -----------------------------------------------------------

TEST(RangeCoderTest, RoundTripUniformSymbols) {
  Rng rng(9);
  std::vector<int> syms(20000);
  for (auto& s : syms) s = static_cast<int>(rng.UniformInt(64));

  Buffer out;
  RangeEncoder enc(&out);
  AdaptiveModel em(64);
  for (int s : syms) EncodeAdaptive(&enc, &em, s);
  enc.Finish();

  RangeDecoder dec(out.span());
  AdaptiveModel dm(64);
  for (int s : syms) {
    ASSERT_EQ(DecodeAdaptive(&dec, &dm), s);
  }
  EXPECT_FALSE(dec.overrun());
}

TEST(RangeCoderTest, SkewedDistributionCompresses) {
  Rng rng(13);
  std::vector<int> syms(50000);
  for (auto& s : syms) {
    // ~90% zeros.
    s = (rng.UniformInt(10) == 0) ? static_cast<int>(rng.UniformInt(16)) : 0;
  }
  Buffer out;
  RangeEncoder enc(&out);
  AdaptiveModel em(16);
  for (int s : syms) EncodeAdaptive(&enc, &em, s);
  enc.Finish();
  // Entropy is well under 1 bit/symbol; require < 2 bits/symbol.
  EXPECT_LT(out.size() * 8, syms.size() * 2);

  RangeDecoder dec(out.span());
  AdaptiveModel dm(16);
  for (int s : syms) ASSERT_EQ(DecodeAdaptive(&dec, &dm), s);
}

TEST(RangeCoderTest, ManyModelsInterleaved) {
  // fpzip interleaves several context models through one coder.
  Rng rng(21);
  std::vector<std::pair<int, int>> stream;  // (context, symbol)
  for (int i = 0; i < 30000; ++i) {
    int ctx = static_cast<int>(rng.UniformInt(4));
    int sym = static_cast<int>(rng.UniformInt(8 + ctx));
    stream.push_back({ctx, sym});
  }
  Buffer out;
  {
    RangeEncoder enc(&out);
    std::vector<AdaptiveModel> models;
    for (int c = 0; c < 4; ++c) models.emplace_back(8 + c);
    for (auto [ctx, sym] : stream) EncodeAdaptive(&enc, &models[ctx], sym);
    enc.Finish();
  }
  {
    RangeDecoder dec(out.span());
    std::vector<AdaptiveModel> models;
    for (int c = 0; c < 4; ++c) models.emplace_back(8 + c);
    for (auto [ctx, sym] : stream) {
      ASSERT_EQ(DecodeAdaptive(&dec, &models[ctx]), sym);
    }
  }
}

// --- binary arithmetic coder ------------------------------------------------

TEST(ArithTest, RoundTripAdaptiveBits) {
  Rng rng(31);
  std::vector<int> bits(60000);
  for (auto& b : bits) b = (rng.UniformInt(100) < 80) ? 1 : 0;

  Buffer out;
  {
    BinaryArithEncoder enc(&out);
    BitModel model;
    for (int b : bits) {
      enc.Encode(b, model.p1());
      model.Update(b);
    }
    enc.Finish();
  }
  // 80/20 entropy ~= 0.72 bits/bit; allow 0.85.
  EXPECT_LT(out.size() * 8.0, bits.size() * 0.85);
  {
    BinaryArithDecoder dec(out.span());
    BitModel model;
    for (int b : bits) {
      int got = dec.Decode(model.p1());
      ASSERT_EQ(got, b);
      model.Update(got);
    }
  }
}

TEST(ArithTest, ExtremeProbabilitiesClamped) {
  Buffer out;
  BinaryArithEncoder enc(&out);
  // p1 = 0 and > 65535 must not break the coder (clamped internally).
  enc.Encode(1, 0);
  enc.Encode(0, 1 << 20);
  enc.Finish();
  BinaryArithDecoder dec(out.span());
  EXPECT_EQ(dec.Decode(0), 1);
  EXPECT_EQ(dec.Decode(1 << 20), 0);
}

TEST(BitModelTest, ConvergesTowardObservedBias) {
  BitModel m;
  for (int i = 0; i < 1000; ++i) m.Update(1);
  EXPECT_GT(m.p1(), 60000u);
  for (int i = 0; i < 1000; ++i) m.Update(0);
  EXPECT_LT(m.p1(), 5000u);
}

}  // namespace
}  // namespace fcbench::codecs

// Byte-identity regression suite for the bit-level wire formats.
//
// The bit I/O engine is a pure speed layer: any change to it (or to the
// fused control-code emission in the coders above it) must leave compressed
// streams byte-for-byte identical. These tests compare freshly compressed
// Gorilla / Chimp / GorillaTimestamps streams against fixtures captured
// from the pre-refactor one-bit-at-a-time encoders
// (tests/wire_format_fixtures.h), so wire-format drift fails CI loudly
// instead of silently breaking every previously written stream.
//
// The input generators deliberately avoid libm (sin/log/...) — only Rng
// integer output and IEEE add/mul — so the corpus, and therefore the
// compressed bytes, are identical on every platform.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "compressors/chimp.h"
#include "compressors/gorilla.h"
#include "compressors/gorilla_timestamps.h"
#include "core/compressor.h"
#include "util/hash.h"
#include "util/rng.h"
#include "wire_format_fixtures.h"

namespace fcbench {
namespace {

using compressors::ChimpCompressor;
using compressors::GorillaCompressor;
using compressors::GorillaTimestampCodec;

// Must match the fixture capture tool exactly (see fixtures header).
template <typename T>
std::vector<T> Walk(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<T> v(n);
  double x = 100.0;
  for (size_t i = 0; i < n; ++i) {
    x += rng.Uniform(-0.25, 0.25);
    if (i % 64 == 0) x += rng.Uniform(0.0, 8.0);
    v[i] = static_cast<T>(x);
  }
  return v;
}

std::vector<int64_t> Stamps(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<int64_t> v(n);
  int64_t t = 1600000000000;
  for (size_t i = 0; i < n; ++i) {
    t += 1000 + static_cast<int64_t>(rng.UniformInt(7)) - 3;
    if (i % 97 == 0) t += 50000;  // occasional gap -> exercises buckets
    v[i] = t;
  }
  return v;
}

template <typename C, typename T>
Buffer CompressVals(const std::vector<T>& vals) {
  CompressorConfig cfg;
  C comp(cfg);
  DataDesc desc = DataDesc::Make(
      sizeof(T) == 4 ? DType::kFloat32 : DType::kFloat64, {vals.size()});
  Buffer out;
  EXPECT_TRUE(comp.Compress(AsBytes(vals), desc, &out).ok());
  return out;
}

void ExpectBytesEqual(const Buffer& got, const unsigned char* want,
                      size_t want_size, const char* name) {
  ASSERT_EQ(got.size(), want_size) << name << ": stream length drifted";
  for (size_t i = 0; i < want_size; ++i) {
    ASSERT_EQ(got.data()[i], want[i])
        << name << ": wire format drift at byte " << i;
  }
}

TEST(WireFormatTest, GorillaFloat64ByteIdentical) {
  Buffer got = CompressVals<GorillaCompressor>(Walk<double>(256, 0xF1C5));
  ExpectBytesEqual(got, wire_fixtures::kGorillaF64,
                   sizeof(wire_fixtures::kGorillaF64), "gorilla/f64");
}

TEST(WireFormatTest, GorillaFloat32ByteIdentical) {
  Buffer got = CompressVals<GorillaCompressor>(Walk<float>(256, 0xF1C5));
  ExpectBytesEqual(got, wire_fixtures::kGorillaF32,
                   sizeof(wire_fixtures::kGorillaF32), "gorilla/f32");
}

TEST(WireFormatTest, ChimpFloat64ByteIdentical) {
  Buffer got = CompressVals<ChimpCompressor>(Walk<double>(256, 0xF1C5));
  ExpectBytesEqual(got, wire_fixtures::kChimpF64,
                   sizeof(wire_fixtures::kChimpF64), "chimp/f64");
}

TEST(WireFormatTest, ChimpFloat32ByteIdentical) {
  Buffer got = CompressVals<ChimpCompressor>(Walk<float>(256, 0xF1C5));
  ExpectBytesEqual(got, wire_fixtures::kChimpF32,
                   sizeof(wire_fixtures::kChimpF32), "chimp/f32");
}

TEST(WireFormatTest, GorillaTimestampsByteIdentical) {
  Buffer got;
  GorillaTimestampCodec::Compress(Stamps(256, 0xF1C5), &got);
  ExpectBytesEqual(got, wire_fixtures::kGorillaTs,
                   sizeof(wire_fixtures::kGorillaTs), "gorilla_ts");
}

// Large corpora (64Ki values) exercise every control code and window-reuse
// path; full arrays would bloat the repo, so these pin size + xxHash64.
TEST(WireFormatTest, GorillaLargeCorpusHashPinned) {
  Buffer got = CompressVals<GorillaCompressor>(Walk<double>(65536, 0xB16));
  EXPECT_EQ(got.size(), wire_fixtures::kGorillaBigSize);
  EXPECT_EQ(XxHash64(got.span()), wire_fixtures::kGorillaBigHash);
}

TEST(WireFormatTest, ChimpLargeCorpusHashPinned) {
  Buffer got = CompressVals<ChimpCompressor>(Walk<double>(65536, 0xB16));
  EXPECT_EQ(got.size(), wire_fixtures::kChimpBigSize);
  EXPECT_EQ(XxHash64(got.span()), wire_fixtures::kChimpBigHash);
}

TEST(WireFormatTest, GorillaTimestampsLargeCorpusHashPinned) {
  Buffer got;
  GorillaTimestampCodec::Compress(Stamps(65536, 0xB16), &got);
  EXPECT_EQ(got.size(), wire_fixtures::kGorillaTsBigSize);
  EXPECT_EQ(XxHash64(got.span()), wire_fixtures::kGorillaTsBigHash);
}

/// One input of the LZ-backed corpus: raw little-endian values + shape.
struct LzInput {
  DataDesc desc;
  Buffer bytes;
};

template <typename T>
LzInput MakeLzInput(const std::vector<T>& vals) {
  return {DataDesc::Make(sizeof(T) == 4 ? DType::kFloat32 : DType::kFloat64,
                         {vals.size()}),
          Buffer::FromSpan(AsBytes(vals))};
}

/// Smooth f64/f32 walks, a decimal (cents) series and a noisy-mantissa
/// series: shapes on which the selectors pick different methods and the
/// LZ matchers find long, short and almost no matches.
std::vector<LzInput> LzCorpus(uint64_t seed) {
  std::vector<LzInput> corpus;
  corpus.push_back(MakeLzInput(Walk<double>(16384, seed)));
  corpus.push_back(MakeLzInput(Walk<float>(16384, seed)));
  Rng rng(seed);
  std::vector<double> cents(16384);
  int64_t c = 250000;
  for (double& v : cents) {
    c += static_cast<int64_t>(rng.UniformInt(41)) - 20;
    v = static_cast<double>(c) / 100.0;
  }
  corpus.push_back(MakeLzInput(cents));
  std::vector<double> noisy(16384);
  for (double& v : noisy) {
    const uint64_t bits = 0x4059000000000000ULL | (rng.Next() >> 24);
    std::memcpy(&v, &bits, sizeof(v));
  }
  corpus.push_back(MakeLzInput(noisy));
  return corpus;
}

// Streams of the methods built on the LZ matchers: bitshuffle's LZ4 and
// LZH back-ends, SPDP's LZ4 stage, and the auto selectors that choose
// among them, plus pFPC, whose predictor tables are reused per thread,
// and three par-* chunk containers. One xxHash64 per method chains every
// stream of corpus seeds 1 and 2, so a matcher change that finds
// different matches fails here. Recorded while each call still built a
// freshly -1-filled hash table (pFPC: while each call still allocated
// fresh predictor tables); auto-speed and the par-* pins while auto still
// had a chunk container writer of its own.
TEST(WireFormatTest, LzBackedMethodStreamsHashPinned) {
  const struct {
    const char* method;
    unsigned long long hash;
  } kPinned[] = {
      {"bitshuffle_lz4", 0x5df7172fe40a2c00ULL},
      {"bitshuffle_zstd", 0x663e625ee454fdcbULL},
      {"spdp", 0x785f2b31e8e6a1a5ULL},
      {"auto", 0x9405a0b4c6ddad9bULL},
      {"auto-ratio", 0x537d549682b07c2dULL},
      {"pfpc", 0xf1408667506dbaa1ULL},
      {"auto-speed", 0x9405a0b4c6ddad9bULL},
      {"par-gorilla", 0xb36357d7861384f7ULL},
      {"par-pfpc", 0xa6234962c35e9461ULL},
      {"par-bitshuffle_lz4", 0x6a666986f973b360ULL},
  };
  for (const auto& pin : kPinned) {
    uint64_t chained = 0;
    for (uint64_t seed : {1, 2}) {
      for (const LzInput& in : LzCorpus(seed)) {
        CompressorConfig cfg;
        auto comp = CompressorRegistry::Global().Create(pin.method, cfg);
        ASSERT_TRUE(comp.ok()) << pin.method;
        Buffer out;
        ASSERT_TRUE(comp.value()->Compress(in.bytes.span(), in.desc, &out)
                        .ok())
            << pin.method;
        chained = XxHash64(out.span(), chained);
        Buffer back;
        ASSERT_TRUE(comp.value()->Decompress(out.span(), in.desc, &back)
                        .ok())
            << pin.method;
        ASSERT_EQ(back.ToVector(), in.bytes.ToVector()) << pin.method;
      }
    }
    EXPECT_EQ(chained, pin.hash)
        << pin.method << ": stream drifted, got 0x" << std::hex << chained;
  }
}

// The FCPK chunk container (core/chunked.h) with many chunks per call:
// 16 KiB chunks cut each corpus input into 4 to 8 chunks, the last one
// short for the ragged lengths. The par-* adapters write version 1, the
// auto selectors version 2 with a per-chunk method table. The bytes must
// not depend on the thread count, so every stream is written with 1 and
// with 3 threads. Recorded while auto still had a chunk container writer
// of its own.
TEST(WireFormatTest, MultiChunkContainerStreamsHashPinned) {
  const struct {
    const char* method;
    unsigned long long hash;
  } kPinned[] = {
      {"par-gorilla", 0xee02b3c79a3ae9f4ULL},
      {"par-pfpc", 0x1071886e3de55d01ULL},
      {"par-bitshuffle_lz4", 0xb438ebc55dbdaaddULL},
      {"auto", 0x95dc0b2a4a44da8bULL},
      {"auto-speed", 0x95dc0b2a4a44da8bULL},
      {"auto-ratio", 0x3c4048c1cca27752ULL},
  };
  for (const auto& pin : kPinned) {
    uint64_t chained = 0;
    for (uint64_t seed : {1, 2}) {
      for (const LzInput& in : LzCorpus(seed)) {
        for (size_t len : {in.bytes.size(), in.bytes.size() - 8 * 1000}) {
          const ByteSpan bytes = in.bytes.span().subspan(0, len);
          const DataDesc desc =
              DataDesc::Make(in.desc.dtype, {len / DTypeSize(in.desc.dtype)});
          Buffer first;
          for (int threads : {1, 3}) {
            CompressorConfig cfg;
            cfg.chunk_bytes = 16 << 10;
            cfg.threads = threads;
            auto comp = CompressorRegistry::Global().Create(pin.method, cfg);
            ASSERT_TRUE(comp.ok()) << pin.method;
            Buffer out;
            ASSERT_TRUE(comp.value()->Compress(bytes, desc, &out).ok())
                << pin.method;
            if (threads == 1) {
              chained = XxHash64(out.span(), chained);
              first = std::move(out);
              continue;
            }
            ASSERT_EQ(out.ToVector(), first.ToVector())
                << pin.method << ": bytes depend on the thread count";
            Buffer back;
            ASSERT_TRUE(comp.value()->Decompress(out.span(), desc, &back)
                            .ok())
                << pin.method;
            ASSERT_EQ(back.size(), len) << pin.method;
            ASSERT_EQ(std::memcmp(back.data(), bytes.data(), len), 0)
                << pin.method;
          }
        }
      }
    }
    EXPECT_EQ(chained, pin.hash)
        << pin.method << ": stream drifted, got 0x" << std::hex << chained;
  }
}

// An empty input still gets a whole container: par-* writes version 1
// with no chunks, auto version 2 with no chunks and the one-entry method
// table {bitshuffle_lz4} (the format needs a non-empty table). Spelled out
// byte for byte, checksum included.
TEST(WireFormatTest, EmptyInputContainersByteIdentical) {
  for (DType dtype : {DType::kFloat32, DType::kFloat64}) {
    const DataDesc desc = DataDesc::Make(dtype, {0});
    for (const char* method :
         {"auto", "auto-speed", "auto-ratio", "par-gorilla"}) {
      const bool mixed = std::string(method).rfind("auto", 0) == 0;
      Buffer want;
      for (uint8_t b : {'F', 'C', 'P', 'K'}) want.PushBack(b);
      want.PushBack(mixed ? 2 : 1);  // version
      want.PushBack(0);              // raw_bytes
      for (uint8_t b : {0x80, 0x80, 0x10}) want.PushBack(b);  // 256 KiB
      if (mixed) {
        want.PushBack(1);  // one method
        want.PushBack(14);
        want.Append("bitshuffle_lz4", 14);
      }
      want.PushBack(0);  // no chunks
      const uint64_t sum = XxHash64(want.span());
      for (int i = 0; i < 8; ++i) want.PushBack((sum >> (8 * i)) & 0xff);

      auto comp = CompressorRegistry::Global().Create(method);
      ASSERT_TRUE(comp.ok()) << method;
      Buffer out;
      ASSERT_TRUE(comp.value()->Compress(ByteSpan(), desc, &out).ok());
      EXPECT_EQ(out.ToVector(), want.ToVector()) << method;
      Buffer back;
      ASSERT_TRUE(comp.value()->Decompress(out.span(), desc, &back).ok());
      EXPECT_EQ(back.size(), 0u) << method;
    }
  }
}

// SPDP writes each LZ block into the stream behind room for the varint of
// its worst-case size, and moves the block up when its own varint is
// shorter. The inputs cover both cases (all-zero blocks compress far below
// their bound, noise does not), several blocks per call, ragged tails and
// empty input. Recorded while each block was still compressed into a
// buffer of its own and then appended. Every stream must also decode back,
// after bytes already in the output.
TEST(WireFormatTest, SpdpBlockFramingHashPinned) {
  std::vector<std::vector<double>> inputs;
  inputs.emplace_back(40000, 0.0);
  std::vector<double> ramp(40000);
  for (size_t i = 0; i < ramp.size(); ++i) ramp[i] = 1000.0 + 0.25 * i;
  inputs.push_back(ramp);
  std::vector<double> noisy(40000);
  uint64_t x = 88172645463325252ULL;  // xorshift64
  for (double& v : noisy) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const uint64_t bits = 0x4059000000000000ULL | (x >> 24);
    std::memcpy(&v, &bits, sizeof(v));
  }
  inputs.push_back(noisy);

  uint64_t chained = 0;
  for (size_t block_size : {size_t(0), size_t(4096), size_t(65536)}) {
    for (const auto& in : inputs) {
      for (size_t len : {size_t(0), size_t(7), size_t(4096 + 3),
                         in.size() * sizeof(double)}) {
        CompressorConfig cfg;
        cfg.block_size = block_size;
        auto comp = CompressorRegistry::Global().Create("spdp", cfg);
        ASSERT_TRUE(comp.ok());
        const ByteSpan bytes(reinterpret_cast<const uint8_t*>(in.data()), len);
        const DataDesc desc = DataDesc::Make(DType::kFloat64, {len / 8});
        Buffer out;
        ASSERT_TRUE(comp.value()->Compress(bytes, desc, &out).ok());
        chained = XxHash64(out.span(), chained);

        Buffer back;
        back.Append("prefix", 6);
        ASSERT_TRUE(comp.value()->Decompress(out.span(), desc, &back).ok())
            << "block_size " << block_size << " len " << len;
        ASSERT_EQ(back.size(), 6 + len);
        EXPECT_EQ(std::memcmp(back.data(), "prefix", 6), 0);
        EXPECT_TRUE(len == 0 || std::memcmp(back.data() + 6, bytes.data(),
                                            len) == 0)
            << "block_size " << block_size << " len " << len;
      }
    }
  }
  EXPECT_EQ(chained, 0xb81ef480646f819fULL)
      << "spdp stream drifted, got 0x" << std::hex << chained;
}

// The decoders must also read the frozen streams back to the exact inputs
// (guards against compensating encoder+decoder changes that round-trip but
// break streams written by older builds).
TEST(WireFormatTest, FixtureStreamsDecodeToOriginalValues) {
  auto vals = Walk<double>(256, 0xF1C5);
  CompressorConfig cfg;
  GorillaCompressor gorilla(cfg);
  DataDesc desc = DataDesc::Make(DType::kFloat64, {vals.size()});
  Buffer out;
  ASSERT_TRUE(gorilla
                  .Decompress(ByteSpan(wire_fixtures::kGorillaF64,
                                       sizeof(wire_fixtures::kGorillaF64)),
                              desc, &out)
                  .ok());
  ASSERT_EQ(out.size(), vals.size() * sizeof(double));
  EXPECT_EQ(std::memcmp(out.data(), vals.data(), out.size()), 0);

  ChimpCompressor chimp(cfg);
  Buffer out2;
  ASSERT_TRUE(chimp
                  .Decompress(ByteSpan(wire_fixtures::kChimpF64,
                                       sizeof(wire_fixtures::kChimpF64)),
                              desc, &out2)
                  .ok());
  ASSERT_EQ(out2.size(), vals.size() * sizeof(double));
  EXPECT_EQ(std::memcmp(out2.data(), vals.data(), out2.size()), 0);

  auto ts = Stamps(256, 0xF1C5);
  auto got = GorillaTimestampCodec::Decompress(
      ByteSpan(wire_fixtures::kGorillaTs, sizeof(wire_fixtures::kGorillaTs)),
      ts.size());
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value(), ts);
}

}  // namespace
}  // namespace fcbench

// Microbenchmarks of the codec substrates (google-benchmark): LZ4 vs the
// zstd-like LZH, Huffman, range coder, arithmetic coder. These are the
// ablation benches for DESIGN.md's codec choices (e.g. why bitshuffle's
// two back-ends trade ratio for speed).

#include <benchmark/benchmark.h>

#include <cstring>
#include <vector>

#include "codecs/arith.h"
#include "codecs/fse.h"
#include "codecs/huffman.h"
#include "codecs/intcodec.h"
#include "codecs/lz4.h"
#include "codecs/lzh.h"
#include "codecs/range_coder.h"
#include "util/hash.h"
#include "util/rng.h"

namespace fcbench::codecs {
namespace {

std::vector<uint8_t> FloatLikeBytes(size_t n) {
  Rng rng(11);
  std::vector<uint8_t> data(n);
  double x = 1000.0;
  for (size_t i = 0; i + 4 <= n; i += 4) {
    x += rng.Normal() * 0.01;
    float f = static_cast<float>(x);
    std::memcpy(&data[i], &f, 4);
  }
  return data;
}

void BM_Lz4Compress(benchmark::State& state) {
  auto data = FloatLikeBytes(static_cast<size_t>(state.range(0)));
  Lz4Codec codec;
  for (auto _ : state) {
    Buffer out;
    codec.Compress(ByteSpan(data.data(), data.size()), &out);
    benchmark::DoNotOptimize(out.size());
  }
  state.SetBytesProcessed(state.iterations() * data.size());
}
BENCHMARK(BM_Lz4Compress)->Arg(64 << 10)->Arg(1 << 20);

void BM_Lz4Decompress(benchmark::State& state) {
  auto data = FloatLikeBytes(static_cast<size_t>(state.range(0)));
  Lz4Codec codec;
  Buffer comp;
  codec.Compress(ByteSpan(data.data(), data.size()), &comp);
  for (auto _ : state) {
    Buffer out;
    benchmark::DoNotOptimize(
        codec.Decompress(comp.span(), data.size(), &out).ok());
  }
  state.SetBytesProcessed(state.iterations() * data.size());
}
BENCHMARK(BM_Lz4Decompress)->Arg(64 << 10)->Arg(1 << 20);

void BM_Lz4ChainedCompress(benchmark::State& state) {
  auto data = FloatLikeBytes(1 << 20);
  Lz4Codec codec(Lz4Codec::Options{
      .max_attempts = static_cast<int>(state.range(0))});
  for (auto _ : state) {
    Buffer out;
    codec.Compress(ByteSpan(data.data(), data.size()), &out);
    benchmark::DoNotOptimize(out.size());
  }
  state.SetBytesProcessed(state.iterations() * data.size());
}
BENCHMARK(BM_Lz4ChainedCompress)->Arg(1)->Arg(8)->Arg(64);

void BM_LzhCompress(benchmark::State& state) {
  auto data = FloatLikeBytes(static_cast<size_t>(state.range(0)));
  LzhCodec codec;
  for (auto _ : state) {
    Buffer out;
    codec.Compress(ByteSpan(data.data(), data.size()), &out);
    benchmark::DoNotOptimize(out.size());
  }
  state.SetBytesProcessed(state.iterations() * data.size());
}
BENCHMARK(BM_LzhCompress)->Arg(64 << 10)->Arg(1 << 20);

void BM_LzhDecompress(benchmark::State& state) {
  auto data = FloatLikeBytes(1 << 20);
  Buffer comp;
  LzhCodec().Compress(ByteSpan(data.data(), data.size()), &comp);
  for (auto _ : state) {
    Buffer out;
    benchmark::DoNotOptimize(LzhCodec::Decompress(comp.span(), data.size(), &out).ok());
  }
  state.SetBytesProcessed(state.iterations() * data.size());
}
BENCHMARK(BM_LzhDecompress);

void BM_HuffmanCompress(benchmark::State& state) {
  auto data = FloatLikeBytes(1 << 20);
  for (auto _ : state) {
    Buffer out;
    HuffmanCodec::Compress(ByteSpan(data.data(), data.size()), &out);
    benchmark::DoNotOptimize(out.size());
  }
  state.SetBytesProcessed(state.iterations() * data.size());
}
BENCHMARK(BM_HuffmanCompress);

void BM_FseCompress(benchmark::State& state) {
  auto data = FloatLikeBytes(1 << 20);
  for (auto _ : state) {
    Buffer out;
    FseCodec::Compress(ByteSpan(data.data(), data.size()), &out);
    benchmark::DoNotOptimize(out.size());
  }
  state.SetBytesProcessed(state.iterations() * data.size());
}
BENCHMARK(BM_FseCompress);

void BM_FseDecompress(benchmark::State& state) {
  auto data = FloatLikeBytes(1 << 20);
  Buffer comp;
  FseCodec::Compress(ByteSpan(data.data(), data.size()), &comp);
  for (auto _ : state) {
    Buffer out;
    size_t consumed = 0;
    benchmark::DoNotOptimize(
        FseCodec::Decompress(comp.span(), data.size(), &consumed, &out).ok());
  }
  state.SetBytesProcessed(state.iterations() * data.size());
}
BENCHMARK(BM_FseDecompress);

// Huffman-backed vs FSE-backed LZH end to end: the ratio/speed trade the
// bitshuffle::zstd stand-in makes.
void BM_LzhEntropyBackend(benchmark::State& state) {
  auto data = FloatLikeBytes(1 << 20);
  LzhCodec codec(LzhCodec::Options{
      .entropy = state.range(0) ? LzhCodec::Entropy::kFse
                                : LzhCodec::Entropy::kHuffman});
  size_t comp_size = 0;
  for (auto _ : state) {
    Buffer out;
    codec.Compress(ByteSpan(data.data(), data.size()), &out);
    comp_size = out.size();
    benchmark::DoNotOptimize(out.size());
  }
  state.SetBytesProcessed(state.iterations() * data.size());
  state.counters["ratio"] =
      static_cast<double>(data.size()) / static_cast<double>(comp_size);
}
BENCHMARK(BM_LzhEntropyBackend)->Arg(0)->Arg(1);

void BM_RleRoundTrip(benchmark::State& state) {
  // Zero-heavy residual stream, RLE's target shape.
  Rng rng(21);
  std::vector<uint8_t> data(1 << 20, 0);
  for (size_t i = 0; i < data.size(); i += 50 + rng.UniformInt(100)) {
    data[i] = static_cast<uint8_t>(rng.Next());
  }
  for (auto _ : state) {
    Buffer comp, out;
    RleCodec::Compress(ByteSpan(data.data(), data.size()), &comp);
    size_t consumed = 0;
    benchmark::DoNotOptimize(
        RleCodec::Decompress(comp.span(), &consumed, &out).ok());
  }
  state.SetBytesProcessed(state.iterations() * data.size());
}
BENCHMARK(BM_RleRoundTrip);

void BM_Simple8bPack(benchmark::State& state) {
  Rng rng(23);
  std::vector<uint64_t> values(1 << 17);
  for (auto& v : values) v = rng.UniformInt(1 << state.range(0));
  for (auto _ : state) {
    Buffer out;
    Simple8bCodec::Compress(values, &out);
    benchmark::DoNotOptimize(out.size());
  }
  state.SetItemsProcessed(state.iterations() * values.size());
}
BENCHMARK(BM_Simple8bPack)->Arg(1)->Arg(8)->Arg(20);

void BM_TimestampCodec(benchmark::State& state) {
  std::vector<int64_t> ts(1 << 17);
  for (size_t i = 0; i < ts.size(); ++i) {
    ts[i] = 1600000000000 + static_cast<int64_t>(i) * 1000;
  }
  for (auto _ : state) {
    Buffer out;
    TimestampCodec::Compress(ts, &out);
    benchmark::DoNotOptimize(out.size());
  }
  state.SetItemsProcessed(state.iterations() * ts.size());
}
BENCHMARK(BM_TimestampCodec);

void BM_XxHash64(benchmark::State& state) {
  auto data = FloatLikeBytes(1 << 20);
  for (auto _ : state) {
    benchmark::DoNotOptimize(XxHash64(data.data(), data.size()));
  }
  state.SetBytesProcessed(state.iterations() * data.size());
}
BENCHMARK(BM_XxHash64);

void BM_RangeCoder(benchmark::State& state) {
  Rng rng(3);
  std::vector<int> syms(1 << 16);
  for (auto& s : syms) s = static_cast<int>(rng.UniformInt(64));
  for (auto _ : state) {
    Buffer out;
    RangeEncoder enc(&out);
    AdaptiveModel model(65);
    for (int s : syms) EncodeAdaptive(&enc, &model, s);
    enc.Finish();
    benchmark::DoNotOptimize(out.size());
  }
  state.SetItemsProcessed(state.iterations() * syms.size());
}
BENCHMARK(BM_RangeCoder);

void BM_BinaryArith(benchmark::State& state) {
  Rng rng(5);
  std::vector<int> bits(1 << 18);
  for (auto& b : bits) b = rng.UniformInt(100) < 70 ? 1 : 0;
  for (auto _ : state) {
    Buffer out;
    BinaryArithEncoder enc(&out);
    BitModel model;
    for (int b : bits) {
      enc.Encode(b, model.p1());
      model.Update(b);
    }
    enc.Finish();
    benchmark::DoNotOptimize(out.size());
  }
  state.SetItemsProcessed(state.iterations() * bits.size());
}
BENCHMARK(BM_BinaryArith);

}  // namespace
}  // namespace fcbench::codecs

BENCHMARK_MAIN();

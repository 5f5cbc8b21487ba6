// Concurrency tests: the registry and independent compressor instances
// must be safe to use from many threads at once (the in-situ pipeline of
// §1.1 compresses one stream per simulation rank). Run under TSan for the
// full guarantee; these tests make races observable as data corruption
// even without it.

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/chunked.h"
#include "core/compressor.h"
#include "db/lsm/lsm_engine.h"
#include "select/auto_compressor.h"
#include "select/selector.h"
#include "util/fs.h"
#include "util/hash.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace fcbench {
namespace {

std::vector<uint8_t> ThreadData(uint64_t seed, size_t count) {
  Rng rng(seed);
  std::vector<uint8_t> bytes(count * 8);
  double x = 10.0 * static_cast<double>(seed + 1);
  for (size_t i = 0; i < count; ++i) {
    x += rng.Normal();
    std::memcpy(&bytes[i * 8], &x, 8);
  }
  return bytes;
}

TEST(ConcurrencyTest, RegistryCreateFromManyThreads) {
  RegisterAllCompressors();
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 50; ++i) {
        for (const auto& name : CompressorRegistry::Global().Names()) {
          auto c = CompressorRegistry::Global().Create(name);
          if (!c.ok() || c.value() == nullptr) ++failures;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(ConcurrencyTest, IndependentInstancesRoundTripInParallel) {
  RegisterAllCompressors();
  // One thread per method; each compresses its own distinct stream many
  // times and verifies bit-exactness. Any shared mutable state between
  // instances shows up as a mismatch.
  std::vector<std::string> methods;
  for (const auto& name : CompressorRegistry::Global().Names()) {
    if (name != "dzip_nn" && name != "buff") methods.push_back(name);
  }
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (size_t m = 0; m < methods.size(); ++m) {
    threads.emplace_back([&, m] {
      CompressorConfig cfg;
      cfg.threads = 2;  // nested pools: thread-per-method x pool-per-call
      auto comp =
          CompressorRegistry::Global().Create(methods[m], cfg).TakeValue();
      DataDesc desc;
      desc.dtype = DType::kFloat64;
      desc.extent = {2048};
      for (int round = 0; round < 10; ++round) {
        auto input = ThreadData(m * 100 + round, 2048);
        Buffer enc, dec;
        if (!comp->Compress(ByteSpan(input.data(), input.size()), desc,
                            &enc)
                 .ok() ||
            !comp->Decompress(enc.span(), desc, &dec).ok() ||
            dec.size() != input.size() ||
            std::memcmp(dec.data(), input.data(), input.size()) != 0) {
          ++mismatches;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(ConcurrencyTest, SharedInstanceSequentialReuse) {
  // The API contract is one call at a time per instance, but an instance
  // must be reusable across many (desc, data) pairs without state leaking
  // between calls.
  RegisterAllCompressors();
  for (const auto& name : CompressorRegistry::Global().Names()) {
    if (name == "dzip_nn") continue;
    auto comp = CompressorRegistry::Global().Create(name).TakeValue();
    for (size_t count : {7u, 1024u, 333u, 4096u}) {
      DataDesc desc;
      desc.dtype = DType::kFloat64;
      desc.extent = {count};
      desc.precision_digits = 10;
      auto input = ThreadData(count, count);
      Buffer enc, dec;
      ASSERT_TRUE(
          comp->Compress(ByteSpan(input.data(), input.size()), desc, &enc)
              .ok())
          << name << " count=" << count;
      ASSERT_TRUE(comp->Decompress(enc.span(), desc, &dec).ok())
          << name << " count=" << count;
      if (name == "buff") continue;  // quantizing exception
      ASSERT_EQ(dec.size(), input.size()) << name;
      EXPECT_EQ(std::memcmp(dec.data(), input.data(), input.size()), 0)
          << name << " state leaked between calls (count=" << count << ")";
    }
  }
}

TEST(ConcurrencyTest, PerThreadCodecScratchKeepsStreamsByteIdentical) {
  // The LZ matchers, the FSE encoder, bitshuffle's block buffers, SPDP's
  // stages and pFPC's predictor tables (the SPDP and pFPC decoders' too)
  // live in per-thread scratch that is reused across calls. Every stream
  // must equal the one a fresh single-threaded call produces, and decode
  // back to the input, whichever thread runs it, in whatever order, and
  // whatever ran on that thread before.
  RegisterAllCompressors();
  struct Job {
    std::string method;
    int threads;
    DataDesc desc;
    std::vector<uint8_t> input;
    uint64_t want = 0;
  };
  std::vector<Job> jobs;
  for (const char* method : {"bitshuffle_lz4", "bitshuffle_zstd", "spdp",
                             "pfpc", "auto", "auto-ratio"}) {
    for (int threads : {1, 4}) {
      // Sizes that grow and shrink the scratch between calls, f32 and f64.
      for (size_t count : {size_t(6000), size_t(301), size_t(2048)}) {
        Job job{method, threads, {}, ThreadData(count + threads, count)};
        const bool f32 = count == 2048;
        job.desc.dtype = f32 ? DType::kFloat32 : DType::kFloat64;
        job.desc.extent = {f32 ? 2 * count : count};
        jobs.push_back(std::move(job));
      }
    }
  }
  auto compress_hash = [](const Job& job, uint64_t* hash) {
    CompressorConfig cfg;
    cfg.threads = job.threads;
    auto comp = CompressorRegistry::Global().Create(job.method, cfg);
    Buffer out, back;
    if (!comp.ok() ||
        !comp.value()
             ->Compress(ByteSpan(job.input.data(), job.input.size()),
                        job.desc, &out)
             .ok() ||
        !comp.value()->Decompress(out.span(), job.desc, &back).ok() ||
        back.ToVector() != job.input) {
      return false;
    }
    *hash = XxHash64(out.span());
    return true;
  };
  for (Job& job : jobs) {
    ASSERT_TRUE(compress_hash(job, &job.want)) << job.method;
  }

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 2; ++round) {
        for (size_t k = 0; k < jobs.size(); ++k) {
          const Job& job = jobs[(k * (2 * t + 1) + t + round) % jobs.size()];
          uint64_t got = 0;
          if (!compress_hash(job, &got) || got != job.want) ++mismatches;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);

  // Two compressors interleaved on one thread: each call must start from
  // scratch as good as fresh, whatever the other one left behind.
  for (size_t a = 0; a < jobs.size(); a += 5) {
    for (size_t b = 1; b < jobs.size(); b += 7) {
      for (const Job* job : {&jobs[a], &jobs[b], &jobs[a], &jobs[b]}) {
        uint64_t got = 0;
        ASSERT_TRUE(compress_hash(*job, &got));
        EXPECT_EQ(got, job->want) << job->method << " after interleaving";
      }
    }
  }
}

TEST(ConcurrencyTest, ProbeOnlySelectorSharedAcrossThreadsCountsExactly) {
  // Pin for the hits_/misses_ counter data race: the fields are atomic,
  // so with the decision cache disabled (cache_capacity = 0) Choose
  // mutates nothing but those counters and a probe-only Selector is
  // safe to share across threads (the documented exception to the
  // one-writer contract in selector.h). The TSan lane proves the
  // absence of the race; the exact-count assertion catches lost
  // updates even in plain builds.
  RegisterAllCompressors();
  select::Selector::Config cfg;
  cfg.cache_capacity = 0;
  select::Selector sel(cfg);

  constexpr size_t kThreads = 4;
  constexpr size_t kPerThread = 8;  // each Choose probes every candidate
  std::vector<std::thread> threads;
  std::atomic<size_t> decided{0};
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&sel, &decided, t] {
      for (size_t i = 0; i < kPerThread; ++i) {
        const auto input = ThreadData(t * 131 + i, 2048);
        DataDesc desc;
        desc.dtype = DType::kFloat64;
        desc.extent = {input.size() / sizeof(double)};
        auto d = sel.Choose(ByteSpan(input.data(), input.size()), desc);
        if (!d.method.empty()) decided.fetch_add(1);
        // Concurrent reads of the counters race a Choose in flight.
        (void)sel.cache_hits();
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(decided.load(), kThreads * kPerThread);
  // Every call missed (no cache), and no increment was lost.
  EXPECT_EQ(sel.cache_hits(), 0u);
  EXPECT_EQ(sel.cache_misses(), kThreads * kPerThread);
}

// --- chunk-parallel adapter -------------------------------------------------

std::vector<uint8_t> ChunkTestData(size_t count) { return ThreadData(77, count); }

DataDesc ChunkDesc(size_t count) {
  DataDesc desc;
  desc.dtype = DType::kFloat64;
  desc.extent = {count};
  return desc;
}

/// Small chunks so even modest inputs span many chunks.
CompressorConfig ChunkConfig(int threads) {
  CompressorConfig cfg;
  cfg.threads = threads;
  cfg.chunk_bytes = 4096;  // 512 f64 elements per chunk
  return cfg;
}

TEST(ChunkedTest, RoundTripAcrossThreadCounts) {
  RegisterAllCompressors();
  constexpr size_t kCount = 5000;  // 9 full chunks + a short tail
  const auto input = ChunkTestData(kCount);
  const DataDesc desc = ChunkDesc(kCount);
  for (const char* method : {"par-gorilla", "par-pfpc", "par-bitshuffle_lz4",
                             "par-ndzip_cpu", "par-chimp128"}) {
    for (int threads : {1, 2, 8}) {
      auto comp = CompressorRegistry::Global()
                      .Create(method, ChunkConfig(threads))
                      .TakeValue();
      Buffer enc, dec;
      ASSERT_TRUE(comp->Compress(ByteSpan(input.data(), input.size()), desc,
                                 &enc)
                      .ok())
          << method << " threads=" << threads;
      ASSERT_TRUE(comp->Decompress(enc.span(), desc, &dec).ok())
          << method << " threads=" << threads;
      ASSERT_EQ(dec.size(), input.size()) << method;
      EXPECT_EQ(std::memcmp(dec.data(), input.data(), input.size()), 0)
          << method << " threads=" << threads;
    }
  }
}

TEST(ChunkedTest, OutputByteIdenticalAcrossThreadCounts) {
  RegisterAllCompressors();
  constexpr size_t kCount = 5000;
  const auto input = ChunkTestData(kCount);
  const DataDesc desc = ChunkDesc(kCount);
  // pfpc is the one wrapped format whose own layout is thread-sensitive;
  // the adapter must insulate the container from that too.
  for (const char* method : {"par-gorilla", "par-pfpc"}) {
    Buffer reference;
    ASSERT_TRUE(CompressorRegistry::Global()
                    .Create(method, ChunkConfig(1))
                    .TakeValue()
                    ->Compress(ByteSpan(input.data(), input.size()), desc,
                               &reference)
                    .ok());
    for (int threads : {2, 8}) {
      Buffer enc;
      ASSERT_TRUE(CompressorRegistry::Global()
                      .Create(method, ChunkConfig(threads))
                      .TakeValue()
                      ->Compress(ByteSpan(input.data(), input.size()), desc,
                                 &enc)
                      .ok());
      ASSERT_EQ(enc.size(), reference.size())
          << method << ": stream length depends on thread count";
      EXPECT_EQ(std::memcmp(enc.data(), reference.data(), enc.size()), 0)
          << method << ": bytes depend on thread count (threads=" << threads
          << ")";
    }
  }
}

TEST(ChunkedTest, TruncatedAndCorruptedDirectoryFailCleanly) {
  RegisterAllCompressors();
  constexpr size_t kCount = 5000;
  const auto input = ChunkTestData(kCount);
  const DataDesc desc = ChunkDesc(kCount);
  auto comp = CompressorRegistry::Global()
                  .Create("par-gorilla", ChunkConfig(2))
                  .TakeValue();
  Buffer enc;
  ASSERT_TRUE(
      comp->Compress(ByteSpan(input.data(), input.size()), desc, &enc).ok());

  // Truncations everywhere in the header/directory region (and a few in
  // the payloads) must decode to an error, never a crash or silent
  // success.
  for (size_t keep : {size_t{0}, size_t{3}, size_t{4}, size_t{9}, size_t{17},
                      enc.size() / 2, enc.size() - 1}) {
    Buffer dec;
    Status st = comp->Decompress(enc.span().subspan(0, keep), desc, &dec);
    EXPECT_FALSE(st.ok()) << "truncated to " << keep << " bytes";
  }
  // Bit flips anywhere in the header + directory + checksum region must
  // all be caught by the directory checksum (payload integrity is the
  // wrapped method's concern).
  auto idx = ChunkedCompressor::ReadIndex(enc.span());
  ASSERT_TRUE(idx.ok());
  const size_t dir_end = idx.value().payload_offsets[0];
  for (size_t victim = 0; victim < dir_end; ++victim) {
    Buffer copy = Buffer::FromSpan(enc.span());
    copy.data()[victim] ^= 0x40;
    Buffer dec;
    Status st = comp->Decompress(copy.span(), desc, &dec);
    EXPECT_FALSE(st.ok()) << "flip at byte " << victim
                          << " decoded successfully";
  }
}

TEST(ChunkedTest, RandomAccessChunkDecodeMatchesFull) {
  RegisterAllCompressors();
  constexpr size_t kCount = 5000;
  const auto input = ChunkTestData(kCount);
  const DataDesc desc = ChunkDesc(kCount);
  ChunkedCompressor comp("gorilla", ChunkConfig(2));
  Buffer enc;
  ASSERT_TRUE(
      comp.Compress(ByteSpan(input.data(), input.size()), desc, &enc).ok());

  auto idx = ChunkedCompressor::ReadIndex(enc.span());
  ASSERT_TRUE(idx.ok());
  ASSERT_EQ(idx.value().num_chunks(), 10u);  // ceil(5000 / 512)

  uint64_t raw_off = 0;
  for (size_t c = 0; c < idx.value().num_chunks(); ++c) {
    Buffer chunk;
    ASSERT_TRUE(comp.DecompressChunk(enc.span(), desc, c, &chunk).ok())
        << "chunk " << c;
    uint64_t want = idx.value().RawSizeOfChunk(c);
    ASSERT_EQ(chunk.size(), want) << "chunk " << c;
    EXPECT_EQ(std::memcmp(chunk.data(), input.data() + raw_off, want), 0)
        << "chunk " << c << " differs from the full decode";
    raw_off += want;
  }
  EXPECT_EQ(raw_off, input.size());

  Buffer oob;
  EXPECT_FALSE(
      comp.DecompressChunk(enc.span(), desc, idx.value().num_chunks(), &oob)
          .ok());
}

// --- mixed-method (auto) frames ---------------------------------------------

/// Two-regime corpus: a smooth sensor walk followed by high-entropy
/// random bits, so a per-chunk selector has a real reason to switch
/// methods mid-stream.
std::vector<uint8_t> TwoRegimeData(size_t count) {
  Rng rng(123);
  std::vector<uint8_t> bytes(count * 8);
  double x = 500.0;
  for (size_t i = 0; i < count / 2; ++i) {
    x += rng.Normal() * 0.25;
    std::memcpy(&bytes[i * 8], &x, 8);
  }
  for (size_t i = count / 2; i < count; ++i) {
    uint64_t w = rng.Next() >> 4;  // positive finite doubles
    std::memcpy(&bytes[i * 8], &w, 8);
  }
  return bytes;
}

TEST(ChunkedTest, AutoRoundTripsByteIdenticallyAcrossThreadCounts) {
  RegisterAllCompressors();
  constexpr size_t kCount = 5000;
  const auto input = TwoRegimeData(kCount);
  const DataDesc desc = ChunkDesc(kCount);
  for (const char* method : {"auto", "auto-speed", "auto-ratio"}) {
    Buffer reference;
    ASSERT_TRUE(CompressorRegistry::Global()
                    .Create(method, ChunkConfig(1))
                    .TakeValue()
                    ->Compress(ByteSpan(input.data(), input.size()), desc,
                               &reference)
                    .ok())
        << method;
    for (int threads : {2, 8}) {
      Buffer enc, dec;
      auto comp = CompressorRegistry::Global()
                      .Create(method, ChunkConfig(threads))
                      .TakeValue();
      ASSERT_TRUE(comp->Compress(ByteSpan(input.data(), input.size()), desc,
                                 &enc)
                      .ok())
          << method << " threads=" << threads;
      ASSERT_EQ(enc.size(), reference.size())
          << method << ": mixed-frame length depends on thread count";
      EXPECT_EQ(std::memcmp(enc.data(), reference.data(), enc.size()), 0)
          << method << ": mixed-frame bytes depend on thread count";
      ASSERT_TRUE(comp->Decompress(enc.span(), desc, &dec).ok()) << method;
      ASSERT_EQ(dec.size(), input.size()) << method;
      EXPECT_EQ(std::memcmp(dec.data(), input.data(), input.size()), 0)
          << method << " threads=" << threads;
    }
  }
}

TEST(ChunkedTest, MixedFrameRandomAccessMatchesFullDecode) {
  RegisterAllCompressors();
  constexpr size_t kCount = 5000;
  const auto input = TwoRegimeData(kCount);
  const DataDesc desc = ChunkDesc(kCount);
  select::AutoCompressor comp(Objective::kStorageReduction, ChunkConfig(2));
  Buffer enc;
  ASSERT_TRUE(
      comp.Compress(ByteSpan(input.data(), input.size()), desc, &enc).ok());

  auto idx = ChunkedCompressor::ReadIndex(enc.span());
  ASSERT_TRUE(idx.ok());
  ASSERT_EQ(idx.value().version, ChunkedCompressor::kVersionMixed);
  ASSERT_EQ(idx.value().num_chunks(), 10u);
  ASSERT_EQ(idx.value().method_ids.size(), 10u);

  uint64_t raw_off = 0;
  for (size_t c = 0; c < idx.value().num_chunks(); ++c) {
    EXPECT_FALSE(idx.value().MethodOfChunk(c).empty()) << c;
    Buffer chunk;
    ASSERT_TRUE(comp.DecompressChunk(enc.span(), desc, c, &chunk).ok())
        << "chunk " << c;
    uint64_t want = idx.value().RawSizeOfChunk(c);
    ASSERT_EQ(chunk.size(), want) << "chunk " << c;
    EXPECT_EQ(std::memcmp(chunk.data(), input.data() + raw_off, want), 0)
        << "chunk " << c << " differs from the original";
    raw_off += want;
  }
  EXPECT_EQ(raw_off, input.size());

  Buffer oob;
  EXPECT_FALSE(
      comp.DecompressChunk(enc.span(), desc, idx.value().num_chunks(), &oob)
          .ok());
}

TEST(ChunkedTest, ParAdapterDecodesMixedFramesViaRecordedMethods) {
  // A v2 frame names its own methods, so any chunked decoder can decode
  // it regardless of the method it was constructed with — the recorded
  // per-chunk method wins over the fallback.
  RegisterAllCompressors();
  constexpr size_t kCount = 3000;
  const auto input = TwoRegimeData(kCount);
  const DataDesc desc = ChunkDesc(kCount);
  Buffer enc;
  ASSERT_TRUE(CompressorRegistry::Global()
                  .Create("auto-ratio", ChunkConfig(2))
                  .TakeValue()
                  ->Compress(ByteSpan(input.data(), input.size()), desc,
                             &enc)
                  .ok());
  auto par = CompressorRegistry::Global()
                 .Create("par-gorilla", ChunkConfig(2))
                 .TakeValue();
  Buffer dec;
  ASSERT_TRUE(par->Decompress(enc.span(), desc, &dec).ok());
  ASSERT_EQ(dec.size(), input.size());
  EXPECT_EQ(std::memcmp(dec.data(), input.data(), input.size()), 0);
}

// ---------------------------------------------------------------------------
// LSM engine: maintenance racing live ingest
// ---------------------------------------------------------------------------

namespace lsmrace {

std::string UniqueDir(const std::string& tag) {
  return "/tmp/fcbench_conc_" + std::to_string(::getpid()) + "_" + tag;
}

void RemoveTree(const std::string& dir) {
  auto names = fs::ListDir(dir);
  if (names.ok()) {
    for (const auto& n : names.value()) {
      const std::string p = fs::JoinPath(dir, n);
      if (!fs::RemoveFile(p).ok()) RemoveTree(p);  // a subdirectory
    }
  }
  ::rmdir(dir.c_str());
}

}  // namespace lsmrace

TEST(ConcurrencyTest, ScrubAndCompactRaceLiveAppendsWithoutLossOrReorder) {
  // One engine, three roles at once: a writer streaming batches (small
  // memtable, so flushes happen continuously on the shared pool), a
  // scrubber re-verifying every published segment, and a compactor
  // merging small runs. The single-flight gates (flush_inflight_,
  // compact_inflight_) and the refcounted segment handles that keep a
  // retired segment's files alive for whoever still reads them must
  // not wedge anyone — and no interleaving may lose, duplicate, or
  // reorder an acknowledged row.
  using db::lsm::ColumnDef;
  using db::lsm::EngineOptions;
  using db::lsm::IngestEngine;

  const std::string dir = lsmrace::UniqueDir("scrub_compact_append");
  lsmrace::RemoveTree(dir);

  EngineOptions opt;
  opt.memtable_bytes = 2 << 10;
  opt.sync_on_commit = false;
  opt.background_flush = true;
  opt.compact_fanout = 0;  // compaction is driven by the racing thread
  opt.io_retry_backoff_ms = 0;
  std::vector<ColumnDef> schema(1);
  schema[0].name = "v";

  auto opened = IngestEngine::Open(dir, schema, opt);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  auto& eng = *opened.value();

  constexpr size_t kBatches = 200;
  constexpr size_t kRows = 16;
  std::atomic<bool> done{false};
  std::atomic<int> scrub_failures{0}, compact_failures{0};
  std::atomic<uint64_t> quarantined{0};

  std::thread scrubber([&] {
    while (!done.load()) {
      auto rep = eng.Scrub();
      if (!rep.ok()) {
        ++scrub_failures;
      } else {
        quarantined += rep.value().quarantined_ids.size();
      }
    }
  });
  std::thread compactor([&] {
    while (!done.load()) {
      if (!eng.Compact().ok()) ++compact_failures;
    }
  });

  for (size_t b = 0; b < kBatches; ++b) {
    std::vector<double> rows(kRows);
    for (size_t r = 0; r < kRows; ++r) {
      rows[r] = static_cast<double>(b * kRows + r);
    }
    ASSERT_TRUE(eng.AppendBatch(rows).ok()) << "batch " << b;
  }
  done = true;
  scrubber.join();
  compactor.join();
  ASSERT_TRUE(eng.WaitForFlush().ok());

  // Nothing was corrupt, so no scrub pass may have quarantined data,
  // and neither maintenance path may have failed.
  EXPECT_EQ(scrub_failures.load(), 0);
  EXPECT_EQ(compact_failures.load(), 0);
  EXPECT_EQ(quarantined.load(), 0u);

  // Every acknowledged row, exactly once, in append order.
  auto v = eng.ReadColumn("v");
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  ASSERT_EQ(v.value().size(), kBatches * kRows);
  for (size_t i = 0; i < v.value().size(); ++i) {
    ASSERT_EQ(v.value()[i], static_cast<double>(i)) << "row " << i;
  }

  ASSERT_TRUE(eng.Close().ok());
  lsmrace::RemoveTree(dir);
}

TEST(ConcurrencyTest, ReadersHoldingFlushedMemtablesSeeExactlyTheAckedRows) {
  // A read copies the immutable memtable's column last, after decoding
  // every segment. A large first segment makes that decode slow, so a
  // reader often still holds a memtable when its flush publishes and
  // the memtables after it fill. That memtable is recycled (cleared and
  // refilled as a later live memtable) only once the last reader lets
  // go. Any reuse under a reader shows up here as a read that is not
  // exactly the acked prefix, and under TSan as a race.
  using db::lsm::ColumnDef;
  using db::lsm::EngineOptions;
  using db::lsm::IngestEngine;

  const std::string dir = lsmrace::UniqueDir("recycle_readers");
  lsmrace::RemoveTree(dir);

  EngineOptions opt;
  opt.sync_on_commit = false;
  opt.background_flush = true;
  opt.compact_fanout = 0;
  opt.flush_compressor = "fpzip";
  std::vector<ColumnDef> schema(1);
  schema[0].name = "v";

  constexpr size_t kPreload = 1 << 16;
  {
    auto preload = IngestEngine::Open(dir, schema, opt);
    ASSERT_TRUE(preload.ok()) << preload.status().ToString();
    std::vector<double> rows(kPreload);
    for (size_t i = 0; i < kPreload; ++i) rows[i] = static_cast<double>(i);
    ASSERT_TRUE(preload.value()->AppendBatch(rows).ok());
    ASSERT_TRUE(preload.value()->Flush().ok());
  }
  opt.memtable_bytes = 1 << 10;
  auto opened = IngestEngine::Open(dir, schema, opt);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  auto& eng = *opened.value();

  constexpr size_t kBatches = 800;
  constexpr size_t kRows = 8;
  std::atomic<uint64_t> acked{kPreload};
  std::atomic<bool> done{false};
  std::atomic<uint64_t> bad_reads{0}, reads{0};

  auto reader = [&] {
    while (!done.load()) {
      const uint64_t floor = acked.load();
      auto v = eng.ReadColumn("v");
      const uint64_t ceiling = acked.load();
      ++reads;
      // A batch is readable just before the writer counts it as acked.
      bool exact = v.ok() && v.value().size() >= floor &&
                   v.value().size() <= ceiling + kRows;
      for (size_t i = 0; exact && i < v.value().size(); ++i) {
        exact = v.value()[i] == static_cast<double>(i);
      }
      if (!exact) ++bad_reads;
    }
  };
  std::thread r1(reader), r2(reader);

  for (size_t b = 0; b < kBatches; ++b) {
    std::vector<double> rows(kRows);
    for (size_t r = 0; r < kRows; ++r) {
      rows[r] = static_cast<double>(kPreload + b * kRows + r);
    }
    ASSERT_TRUE(eng.AppendBatch(rows).ok()) << "batch " << b;
    acked += kRows;
  }
  done = true;
  r1.join();
  r2.join();
  ASSERT_TRUE(eng.WaitForFlush().ok());

  EXPECT_GT(reads.load(), 0u);
  EXPECT_EQ(bad_reads.load(), 0u);
  auto v = eng.ReadColumn("v");
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  ASSERT_EQ(v.value().size(), kPreload + kBatches * kRows);
  for (size_t i = 0; i < v.value().size(); ++i) {
    ASSERT_EQ(v.value()[i], static_cast<double>(i)) << "row " << i;
  }

  ASSERT_TRUE(eng.Close().ok());
  lsmrace::RemoveTree(dir);
}

TEST(ThreadPoolLivenessTest, CallerNeverRunsForeignTasksAndLateStubsSkipFn) {
  // Both workers are parked, so every helper stub ParallelFor submits
  // sits in the queue behind a task another thread submitted. The
  // caller must finish the whole range itself without executing that
  // foreign task (it could be a flush waiting on a pin the caller
  // holds), and the stubs, once they finally run, must not call `fn`.
  ThreadPool pool(2);
  std::mutex mu;
  std::condition_variable cv;
  size_t parked = 0;
  bool release = false;
  for (size_t w = 0; w < pool.num_threads(); ++w) {
    pool.Submit([&] {
      std::unique_lock<std::mutex> lock(mu);
      ++parked;
      cv.notify_all();
      cv.wait(lock, [&] { return release; });
    });
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return parked == pool.num_threads(); });
  }

  std::atomic<bool> foreign_ran{false};
  std::thread::id foreign_thread;
  std::thread([&] {
    pool.Submit([&] {
      foreign_thread = std::this_thread::get_id();
      foreign_ran = true;
    });
  }).join();

  constexpr size_t kN = 64;
  std::vector<std::atomic<int>> hits(kN);
  std::atomic<size_t> calls{0};
  std::thread::id caller_thread;
  std::thread caller([&] {
    caller_thread = std::this_thread::get_id();
    pool.ParallelFor(
        kN,
        [&](size_t i) {
          hits[i].fetch_add(1);
          calls.fetch_add(1);
        },
        {/*grain=*/1});
  });
  caller.join();
  EXPECT_FALSE(foreign_ran.load()) << "caller ran a foreign queued task";
  EXPECT_EQ(calls.load(), kN);

  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  pool.Wait();  // the foreign task and the stale helper stubs all run
  EXPECT_TRUE(foreign_ran.load());
  EXPECT_NE(foreign_thread, caller_thread);
  EXPECT_EQ(calls.load(), kN) << "a late helper stub called fn";
  for (size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

}  // namespace
}  // namespace fcbench

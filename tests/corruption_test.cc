// Failure-injection suite: every registered method's decoder is fed
// truncated and bit-flipped streams. A production database codec must
// never crash, hang, or write out of bounds on hostile input — at worst
// it returns an error Status or (for headerless bit codecs) wrong data of
// a bounded size. These tests are the memory-safety contract; run them
// under ASan/UBSan for the full guarantee.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "core/chunked.h"
#include "core/compressor.h"
#include "db/paged_file.h"
#include "test_names.h"
#include "util/bitio.h"
#include "util/fs.h"
#include "util/hash.h"
#include "util/mem_tracker.h"
#include "util/rng.h"

namespace fcbench {
namespace {

// dzip_nn retrains its model per call (~KB/s, paper §4.5); keep its
// corpus tiny so the fuzz sweep stays fast.
size_t ElementsFor(const std::string& method) {
  return method == "dzip_nn" ? 256 : 4096;
}

std::vector<uint8_t> SmoothData(DType dtype, size_t count, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> bytes(count * DTypeSize(dtype));
  double x = 100.0;
  for (size_t i = 0; i < count; ++i) {
    x += rng.Normal();
    if (dtype == DType::kFloat32) {
      float f = static_cast<float>(x);
      std::memcpy(&bytes[i * 4], &f, 4);
    } else {
      std::memcpy(&bytes[i * 8], &x, 8);
    }
  }
  return bytes;
}

class CorruptionResilience
    : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    RegisterAllCompressors();
    method_ = GetParam();
    CompressorConfig cfg;
    cfg.threads = 2;
    auto r = CompressorRegistry::Global().Create(method_, cfg);
    ASSERT_TRUE(r.ok());
    comp_ = r.TakeValue();

    desc_.dtype = comp_->traits().supports_f64 ? DType::kFloat64
                                               : DType::kFloat32;
    const size_t count = ElementsFor(method_);
    desc_.extent = {count};
    desc_.precision_digits = 4;
    input_ = SmoothData(desc_.dtype, count, 99);
    ASSERT_TRUE(comp_->Compress(ByteSpan(input_.data(), input_.size()),
                                desc_, &stream_)
                    .ok());
    ASSERT_GT(stream_.size(), 0u);
  }

  // A decode of hostile input may fail or may "succeed" with garbage; it
  // must not produce unboundedly more data than the descriptor promises.
  void ExpectBoundedDecode(ByteSpan hostile) {
    Buffer out;
    Status st = comp_->Decompress(hostile, desc_, &out);
    if (st.ok()) {
      EXPECT_LE(out.size(), input_.size() * 2 + 4096)
          << method_ << ": decoder produced unbounded output";
    }
  }

  std::string method_;
  std::unique_ptr<Compressor> comp_;
  DataDesc desc_;
  std::vector<uint8_t> input_;
  Buffer stream_;
};

TEST_P(CorruptionResilience, TruncationSweep) {
  // Every prefix length in a coarse sweep, plus the boundary cases.
  std::vector<size_t> lengths = {0, 1, 2, 3};
  for (size_t len = 4; len < stream_.size(); len += stream_.size() / 37 + 1) {
    lengths.push_back(len);
  }
  if (stream_.size() > 1) lengths.push_back(stream_.size() - 1);
  for (size_t len : lengths) {
    ExpectBoundedDecode(stream_.span().subspan(0, len));
  }
}

TEST_P(CorruptionResilience, BitFlipSweep) {
  for (size_t victim = 0; victim < stream_.size();
       victim += stream_.size() / 101 + 1) {
    for (uint8_t mask : {uint8_t(0x01), uint8_t(0x80), uint8_t(0xff)}) {
      Buffer copy = Buffer::FromSpan(stream_.span());
      copy.data()[victim] ^= mask;
      ExpectBoundedDecode(copy.span());
    }
  }
}

TEST_P(CorruptionResilience, RandomGarbage) {
  Rng rng(777);
  for (size_t size : {size_t(1), size_t(17), size_t(1024), size_t(65536)}) {
    Buffer garbage(size);
    for (size_t i = 0; i < size; ++i) {
      garbage.data()[i] = static_cast<uint8_t>(rng.Next());
    }
    ExpectBoundedDecode(garbage.span());
  }
}

TEST_P(CorruptionResilience, HeaderByteSweep) {
  // Headers carry counts/sizes; flip each of the first 32 bytes
  // individually through all-ones to attack length fields directly.
  const size_t header_span = std::min<size_t>(stream_.size(), 32);
  for (size_t victim = 0; victim < header_span; ++victim) {
    Buffer copy = Buffer::FromSpan(stream_.span());
    copy.data()[victim] = 0xff;
    ExpectBoundedDecode(copy.span());
    copy.data()[victim] = 0x00;
    ExpectBoundedDecode(copy.span());
  }
}

TEST_P(CorruptionResilience, VarintFloodHeader) {
  // 0xff runs make LEB128 length fields decode to astronomically large
  // values — the classic allocation-DoS attack on length-prefixed
  // formats. Decoders must reject before allocating.
  for (size_t k = 1; k <= 10 && k < stream_.size(); ++k) {
    Buffer copy = Buffer::FromSpan(stream_.span());
    for (size_t i = 0; i < k; ++i) copy.data()[i] = 0xff;
    ExpectBoundedDecode(copy.span());
  }
}

TEST_P(CorruptionResilience, EmptyInput) {
  Buffer empty;
  ExpectBoundedDecode(empty.span());
}

INSTANTIATE_TEST_SUITE_P(
    AllMethods, CorruptionResilience,
    ::testing::ValuesIn([] {
      RegisterAllCompressors();
      return CompressorRegistry::Global().Names();
    }()),
    [](const auto& param_info) { return SanitizeTestName(param_info.param); });

// --- mixed-method (FCPK v2) frames ------------------------------------------
//
// The auto selectors ride the generic sweep above; these tests attack
// what is new in version 2 — the method table and per-chunk method ids —
// with *valid checksums*, so the directory checksum cannot mask the
// specific validation under test. A hostile but checksum-correct mixed
// frame must still decode to a clean Status, never a crash.

/// Builds an FCPK v2 header+directory byte-for-byte (bypassing the
/// writer's own validation) with a correct trailing checksum, followed
/// by `payload`.
Buffer CraftMixedFrame(uint64_t raw_bytes, uint64_t chunk_raw_bytes,
                       const std::vector<std::string>& methods,
                       const std::vector<uint64_t>& method_ids,
                       const std::vector<uint64_t>& payload_sizes,
                       ByteSpan payload) {
  Buffer header;
  PutFixed(&header, ChunkedCompressor::kMagic);
  PutVarint64(&header, ChunkedCompressor::kVersionMixed);
  PutVarint64(&header, raw_bytes);
  PutVarint64(&header, chunk_raw_bytes);
  PutVarint64(&header, methods.size());
  for (const auto& m : methods) {
    PutVarint64(&header, m.size());
    header.Append(m.data(), m.size());
  }
  PutVarint64(&header, payload_sizes.size());
  for (uint64_t id : method_ids) PutVarint64(&header, id);
  for (uint64_t s : payload_sizes) PutVarint64(&header, s);
  PutFixed(&header, XxHash64(header.span()));
  header.Append(payload);
  return header;
}

class MixedFrameCorruption : public ::testing::Test {
 protected:
  void SetUp() override {
    RegisterAllCompressors();
    desc_.dtype = DType::kFloat64;
    desc_.extent = {1024};
    input_ = SmoothData(DType::kFloat64, 1024, 7);
    CompressorConfig cfg;
    cfg.chunk_bytes = 2048;  // 4 chunks of 256 f64 elements
    auto_ = CompressorRegistry::Global().Create("auto", cfg).TakeValue();
    ASSERT_TRUE(auto_
                    ->Compress(ByteSpan(input_.data(), input_.size()), desc_,
                               &frame_)
                    .ok());
    auto idx = ChunkedCompressor::ReadIndex(frame_.span());
    ASSERT_TRUE(idx.ok());
    idx_ = idx.TakeValue();
    ASSERT_EQ(idx_.num_chunks(), 4u);
    ASSERT_GE(idx_.methods.size(), 1u);
  }

  /// Valid payload slices from the real frame, so only the directory
  /// field under test is hostile.
  std::vector<uint64_t> RealPayloadSizes() const {
    return idx_.payload_sizes;
  }
  ByteSpan RealPayload() const {
    return frame_.span().subspan(idx_.payload_offsets[0]);
  }

  DataDesc desc_;
  std::vector<uint8_t> input_;
  std::unique_ptr<Compressor> auto_;
  Buffer frame_;
  ChunkedCompressor::Index idx_;
};

TEST_F(MixedFrameCorruption, OutOfRangeMethodIdRejectedCleanly) {
  // Chunk 2 claims method id 9 with only |methods| entries; checksum is
  // valid, so only the id validation can catch it.
  std::vector<uint64_t> ids(idx_.method_ids.begin(), idx_.method_ids.end());
  ids[2] = 9;
  Buffer evil = CraftMixedFrame(input_.size(), idx_.chunk_raw_bytes,
                                idx_.methods, ids, RealPayloadSizes(),
                                RealPayload());
  auto parsed = ChunkedCompressor::ReadIndex(evil.span());
  EXPECT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kCorruption);
  Buffer out;
  Status st = auto_->Decompress(evil.span(), desc_, &out);
  EXPECT_FALSE(st.ok());
}

TEST_F(MixedFrameCorruption, AdapterNamesInMethodTableRejected) {
  // par-*/auto* names inside the table would let a hostile frame nest
  // decoders; both must be rejected at parse time.
  for (const char* adapter : {"par-gorilla", "auto", "auto-ratio"}) {
    std::vector<uint64_t> ids(idx_.method_ids.size(), 0);
    Buffer evil = CraftMixedFrame(input_.size(), idx_.chunk_raw_bytes,
                                  {adapter}, ids, RealPayloadSizes(),
                                  RealPayload());
    Buffer out;
    Status st = auto_->Decompress(evil.span(), desc_, &out);
    EXPECT_FALSE(st.ok()) << adapter;
  }
}

TEST_F(MixedFrameCorruption, UnknownMethodNameFailsAtDecode) {
  // Structurally plausible but unregistered method name: the parse may
  // accept it, but decoding must surface a clean error.
  std::vector<uint64_t> ids(idx_.method_ids.size(), 0);
  Buffer evil = CraftMixedFrame(input_.size(), idx_.chunk_raw_bytes,
                                {"zpaq9000"}, ids, RealPayloadSizes(),
                                RealPayload());
  Buffer out;
  Status st = auto_->Decompress(evil.span(), desc_, &out);
  EXPECT_FALSE(st.ok());
}

TEST_F(MixedFrameCorruption, OversizedMethodTableRejected) {
  std::vector<std::string> methods(ChunkedCompressor::kMaxMethods + 1,
                                   "gorilla");
  std::vector<uint64_t> ids(idx_.method_ids.size(), 0);
  Buffer evil = CraftMixedFrame(input_.size(), idx_.chunk_raw_bytes,
                                methods, ids, RealPayloadSizes(),
                                RealPayload());
  EXPECT_FALSE(ChunkedCompressor::ReadIndex(evil.span()).ok());
}

TEST_F(MixedFrameCorruption, MethodIdByteFlipsCaughtByChecksum) {
  // Every byte of the genuine header+directory (which includes the
  // method table and ids) is checksummed: any flip must fail cleanly.
  const size_t dir_end = idx_.payload_offsets[0];
  for (size_t victim = 0; victim < dir_end; ++victim) {
    Buffer copy = Buffer::FromSpan(frame_.span());
    copy.data()[victim] ^= 0x04;
    Buffer out;
    Status st = auto_->Decompress(copy.span(), desc_, &out);
    EXPECT_FALSE(st.ok()) << "flip at byte " << victim;
  }
}

TEST_F(MixedFrameCorruption, TruncatedMixedFramesFailCleanly) {
  // Truncations across the whole frame — inside the method table, the
  // id list, the checksum, and the payloads — must all error.
  for (size_t keep = 0; keep < frame_.size();
       keep += frame_.size() / 97 + 1) {
    Buffer out;
    Status st =
        auto_->Decompress(frame_.span().subspan(0, keep), desc_, &out);
    EXPECT_FALSE(st.ok()) << "truncated to " << keep << " bytes";
  }
}

// ---------------------------------------------------------------------------
// Codec hostile chunk headers: pFPC, SPDP and fpzip chunks start with
// 64-bit sizes read from the stream. Values whose sum wraps past 2^64 must
// surface as Corruption, never as a read past the stream. Each stream is
// decoded from an exact-size heap copy, so the ASan lane reports a single
// byte of over-read.
// ---------------------------------------------------------------------------

class CodecHostileHeader : public ::testing::Test {
 protected:
  void SetUp() override {
    RegisterAllCompressors();
    desc_.dtype = DType::kFloat64;
    desc_.extent = {4096};
  }

  /// Decodes `stream` with `method` into `out`, which keeps what it held.
  Status Decode(const std::string& method, const Buffer& stream,
                Buffer* out) {
    CompressorConfig cfg;
    cfg.threads = 1;
    auto comp = CompressorRegistry::Global().Create(method, cfg).TakeValue();
    const std::vector<uint8_t> exact = stream.ToVector();
    return comp->Decompress(ByteSpan(exact.data(), exact.size()), desc_, out);
  }

  void ExpectRejected(const std::string& method, const Buffer& stream) {
    Buffer out;
    Status st = Decode(method, stream, &out);
    EXPECT_EQ(st.code(), StatusCode::kCorruption)
        << method << ": " << st.ToString();
  }

  DataDesc desc_;
};

TEST_F(CodecHostileHeader, PfpcChunkSizesWrapPastTheChunk) {
  // One chunk of all 4096 words whose code stream claims 2^64 - 2 bytes
  // and residue 3: the sum wraps to 12, inside the 16-byte chunk. The five
  // code bytes present mean "eight zero bytes, no residue" for ten words,
  // after which an unchecked decoder reads codes past the stream. (2^64 - 1
  // would not do: as a span count it means "to the end".)
  Buffer s;
  PutVarint64(&s, 1);     // nchunks
  PutVarint64(&s, 4096);  // chunk_words
  PutVarint64(&s, 0);     // tail
  PutVarint64(&s, 16);    // chunk size
  PutVarint64(&s, ~uint64_t{1});
  PutVarint64(&s, 3);
  for (int i = 0; i < 5; ++i) s.PushBack(0x77);
  ExpectRejected("pfpc", s);
}

TEST_F(CodecHostileHeader, SpdpBlockSizeWrapsPastTheStream) {
  // A packed LZ block of 2^64 - 2 bytes: off + size wraps to just below
  // the stream size, and the block's first literal run (541 bytes) would
  // be copied from past the stream.
  Buffer s;
  PutVarint64(&s, 4096 * 8);           // total
  PutVarint64(&s, uint64_t{1} << 20);  // block size
  PutVarint64(&s, ~uint64_t{1});       // packed size
  for (uint8_t b : {0xF0, 0xFF, 0xFF, 0x10, 0x00}) s.PushBack(b);
  ExpectRejected("spdp", s);
}

TEST_F(CodecHostileHeader, FpzipStreamSizesWrapPastTheStream) {
  // Symbol stream 2^64 - 2 bytes, raw bits 3: the sum wraps to one byte
  // short of the stream's end, where the range decoder starts reading.
  Buffer s;
  PutVarint64(&s, ~uint64_t{1});
  PutVarint64(&s, 3);
  s.PushBack(0);
  ExpectRejected("fpzip", s);
}

TEST_F(CodecHostileHeader, PfpcDirectoryMustCoverEveryWord) {
  // A valid one-chunk stream of 2048 words, decoded against a descriptor
  // of 4096: the directory covers half the output. Decoding in place
  // would leave the other half unwritten at the right size.
  const std::vector<uint8_t> half = SmoothData(DType::kFloat64, 2048, 3);
  CompressorConfig cfg;
  cfg.threads = 1;
  auto pfpc = CompressorRegistry::Global().Create("pfpc", cfg).TakeValue();
  DataDesc half_desc = desc_;
  half_desc.extent = {2048};
  Buffer stream;
  ASSERT_TRUE(
      pfpc->Compress(ByteSpan(half.data(), half.size()), half_desc, &stream)
          .ok());
  Buffer out;
  out.Append("abc", 3);
  Status st = Decode("pfpc", stream, &out);
  EXPECT_EQ(st.code(), StatusCode::kCorruption) << st.ToString();
  EXPECT_EQ(out.ToVector(), (std::vector<uint8_t>{'a', 'b', 'c'}));
}

TEST_F(CodecHostileHeader, PfpcOutputIsBoundedByTheStream) {
  // A 128 MiB descriptor and a 9-byte stream whose one chunk claims all
  // the words: every word needs half a code byte, so the decoder rejects
  // the stream before it sizes the output.
  Buffer s;
  PutVarint64(&s, 1);                  // nchunks
  PutVarint64(&s, uint64_t{1} << 24);  // chunk_words
  PutVarint64(&s, 0);                  // tail
  PutVarint64(&s, 2);                  // chunk size
  PutVarint64(&s, 0);
  PutVarint64(&s, 0);
  ASSERT_EQ(s.size(), 9u);
  desc_.extent = {uint64_t{1} << 24};
  MemTracker::Global().ResetPeak();
  const size_t before = MemTracker::Global().current();
  ExpectRejected("pfpc", s);
  EXPECT_LT(MemTracker::Global().peak() - before, size_t{1} << 20);
}

TEST_F(CodecHostileHeader, PfpcErrorRestoresTheOutput) {
  // Two chunks, the second truncated mid-residue: the first decodes into
  // its slice before the second fails, and `out` still comes back at its
  // size on entry.
  const std::vector<uint8_t> data = SmoothData(DType::kFloat64, 4096, 5);
  CompressorConfig cfg;
  cfg.threads = 2;
  auto pfpc = CompressorRegistry::Global().Create("pfpc", cfg).TakeValue();
  Buffer stream;
  ASSERT_TRUE(
      pfpc->Compress(ByteSpan(data.data(), data.size()), desc_, &stream)
          .ok());
  // Zero the second chunk's code stream: every word then claims eight
  // residue bytes, more than its residue holds.
  size_t off = 0;
  uint64_t nchunks = 0, chunk_words = 0, tail = 0, size0 = 0;
  ASSERT_TRUE(GetVarint64(stream.span(), &off, &nchunks));
  ASSERT_TRUE(GetVarint64(stream.span(), &off, &chunk_words));
  ASSERT_TRUE(GetVarint64(stream.span(), &off, &tail));
  ASSERT_EQ(nchunks, 2u);
  ASSERT_TRUE(GetVarint64(stream.span(), &off, &size0));
  uint64_t size1 = 0;
  ASSERT_TRUE(GetVarint64(stream.span(), &off, &size1));
  size_t chunk1 = off + size0;
  uint64_t codes_size = 0, residue_size = 0;
  ASSERT_TRUE(GetVarint64(stream.span(), &chunk1, &codes_size));
  ASSERT_TRUE(GetVarint64(stream.span(), &chunk1, &residue_size));
  std::memset(stream.data() + chunk1, 0, codes_size);
  for (size_t prefix : {size_t(0), size_t(5)}) {
    Buffer out;
    out.Append("hello", prefix);
    Status st = Decode("pfpc", stream, &out);
    EXPECT_EQ(st.code(), StatusCode::kCorruption) << st.ToString();
    EXPECT_EQ(out.size(), prefix);
  }
}

// ---------------------------------------------------------------------------
// PagedFile hostile headers: every length field read from a container
// header is attacker-controlled. Each test below encodes one overflow or
// inconsistency that must surface as a Corruption status — never as an
// out-of-bounds read (the ASan lane enforces that half of the contract),
// a giant allocation, or a wrapped bounds check that lets the decode
// loops run wild.
// ---------------------------------------------------------------------------

class PagedFileHostileHeader : public ::testing::Test {
 protected:
  void SetUp() override {
    RegisterAllCompressors();
    path_ = "/tmp/fcbench_pf_hostile_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name();
  }
  void TearDown() override { fs::RemoveFile(path_); }

  void ExpectRejected(const Buffer& bytes, const char* what) {
    ASSERT_TRUE(
        fs::WriteFileAtomic(path_, bytes.span(), /*durable=*/false).ok());
    auto r = db::PagedFile::Read(path_, nullptr);
    ASSERT_FALSE(r.ok()) << what;
    EXPECT_EQ(r.status().code(), StatusCode::kCorruption) << what;
  }

  /// Valid header prefix: magic | compressor "none" | page | dtype f64 |
  /// full precision. Tests append the hostile fields after it.
  static Buffer Prefix(uint64_t page) {
    Buffer b;
    PutFixed(&b, uint32_t{0x46434246});  // "FCBF"
    PutVarint64(&b, 4);
    b.Append("none", 4);
    PutVarint64(&b, page);
    b.PushBack(1);
    b.PushBack(0);
    return b;
  }

  std::string path_;
};

TEST_F(PagedFileHostileHeader, HostileCompressorNameLength) {
  // A 64-bit name length near SIZE_MAX: `off + len` wraps, so a naive
  // `off + len > size` bounds check passes and .assign() reads out of
  // bounds. The parser must compare overflow-safely.
  Buffer b;
  PutFixed(&b, uint32_t{0x46434246});
  PutVarint64(&b, ~uint64_t{0});
  ExpectRejected(b, "hostile name length");
}

TEST_F(PagedFileHostileHeader, OversizedPageRejected) {
  Buffer b = Prefix(uint64_t{1} << 33);  // above the 2 GiB page cap
  PutVarint64(&b, 1);                    // rank
  PutVarint64(&b, 8);                    // extent
  ExpectRejected(b, "oversized page");
}

TEST_F(PagedFileHostileHeader, ExtentProductOverflow) {
  Buffer b = Prefix(4096);
  PutVarint64(&b, 2);  // rank 2: the element product overflows u64
  PutVarint64(&b, uint64_t{1} << 33);
  PutVarint64(&b, uint64_t{1} << 33);
  ExpectRejected(b, "extent product overflow");
}

TEST_F(PagedFileHostileHeader, ImplausibleTotalSize) {
  Buffer b = Prefix(4096);
  PutVarint64(&b, 1);
  PutVarint64(&b, uint64_t{1} << 50);  // 2^53 bytes: over the 2^46 cap
  ExpectRejected(b, "implausible total size");
}

TEST_F(PagedFileHostileHeader, PageCountMismatch) {
  Buffer b = Prefix(4096);
  PutVarint64(&b, 1);
  PutVarint64(&b, 1024);  // 8 KiB of f64 => exactly 2 pages
  PutVarint64(&b, 3);     // header claims 3
  ExpectRejected(b, "page count mismatch");
}

TEST_F(PagedFileHostileHeader, PageDirectorySumOverflow) {
  Buffer b = Prefix(4096);
  PutVarint64(&b, 1);
  PutVarint64(&b, 1024);
  PutVarint64(&b, 2);
  PutVarint64(&b, ~uint64_t{0});  // directory entries sum past 2^64
  PutVarint64(&b, 2);
  ExpectRejected(b, "page directory sum overflow");
}

TEST_F(PagedFileHostileHeader, TruncatedPages) {
  Buffer b = Prefix(4096);
  PutVarint64(&b, 1);
  PutVarint64(&b, 1024);
  PutVarint64(&b, 2);
  PutVarint64(&b, 64);  // directory promises 96 payload bytes...
  PutVarint64(&b, 32);
  b.Append(std::vector<uint8_t>(5, 0xab).data(), 5);  // ...file has 5
  ExpectRejected(b, "truncated pages");
}

TEST_F(PagedFileHostileHeader, PageSizeNotWholeElements) {
  // Page tasks address pages by row, so a page must hold whole elements.
  Buffer b = Prefix(4097);
  PutVarint64(&b, 1);
  PutVarint64(&b, 1024);  // 8 KiB of f64 => 2 pages of 4097 bytes
  PutVarint64(&b, 2);
  PutVarint64(&b, 4097);
  PutVarint64(&b, 4095);
  b.Append(std::vector<uint8_t>(8192, 0xab).data(), 8192);
  ExpectRejected(b, "page size not whole elements");
}

TEST_F(PagedFileHostileHeader, RawPageShorterThanItsPage) {
  // The directory sums to the array size, but page 0 stores less than a
  // page: its raw bytes would land at the wrong rows.
  Buffer b = Prefix(4096);
  PutVarint64(&b, 1);
  PutVarint64(&b, 1024);
  PutVarint64(&b, 2);
  PutVarint64(&b, 4000);
  PutVarint64(&b, 4192);
  b.Append(std::vector<uint8_t>(8192, 0xab).data(), 8192);
  ExpectRejected(b, "raw page size mismatch");
}

}  // namespace
}  // namespace fcbench

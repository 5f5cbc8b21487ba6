#include "compressors/bitshuffle.h"

#include <algorithm>
#include <vector>

#include "codecs/lz4.h"
#include "codecs/lzh.h"
#include "compressors/transpose.h"
#include "util/bitio.h"
#include "util/thread_pool.h"

namespace fcbench::compressors {

namespace {

constexpr size_t kDefaultBlock = 4096;  // bytes; bitshuffle's L1 target

/// The transposed block, kept per thread and reused by compress and
/// decompress (as large as the largest block the thread has coded).
uint8_t* TransposeScratch(size_t block) {
  thread_local std::vector<uint8_t> transposed;
  if (transposed.size() < block) transposed.resize(block);
  return transposed.data();
}

void BackendCompress(BitshuffleBackend backend, ByteSpan in, Buffer* out) {
  if (backend == BitshuffleBackend::kLz4) {
    codecs::Lz4Codec().Compress(in, out);
  } else {
    codecs::LzhCodec().Compress(in, out);
  }
}

Status BackendDecompress(BitshuffleBackend backend, ByteSpan in,
                         size_t orig_size, uint8_t* dst) {
  if (backend == BitshuffleBackend::kLz4) {
    return codecs::Lz4Codec().DecompressTo(in, orig_size, dst);
  }
  return codecs::LzhCodec::DecompressTo(in, orig_size, dst);
}

}  // namespace

BitshuffleCompressor::BitshuffleCompressor(BitshuffleBackend backend,
                                           const CompressorConfig& config)
    : backend_(backend),
      block_size_(config.block_size ? config.block_size : kDefaultBlock),
      threads_(ThreadPool::ResolveThreads(config.threads)) {
  traits_.name = backend == BitshuffleBackend::kLz4 ? "bitshuffle_lz4"
                                                    : "bitshuffle_zstd";
  traits_.year = 2015;
  traits_.domain = "HPC";
  traits_.arch = Arch::kCpu;
  traits_.predictor = PredictorClass::kDictionary;
  traits_.parallel = true;
  traits_.uses_dimensions = false;
}

Status BitshuffleCompressor::Compress(ByteSpan input, const DataDesc& desc,
                                      Buffer* out) {
  const size_t esize = DTypeSize(desc.dtype);
  // Round the block to a whole number of 8-element groups.
  const size_t group = esize * 8;
  size_t block = std::max(block_size_ / group, size_t(1)) * group;
  size_t nblocks = (input.size() + block - 1) / block;
  if (input.empty()) nblocks = 0;

  std::vector<Buffer> parts(nblocks);
  ThreadPool::Shared().ParallelFor(
      nblocks,
      [&](size_t b) {
        size_t begin = b * block;
        size_t len = std::min(block, input.size() - begin);
        size_t elems = len / esize;
        size_t whole_elems = (elems / 8) * 8;  // transpose granularity
        size_t whole_bytes = whole_elems * esize;

        uint8_t* transposed = TransposeScratch(block);
        BitTranspose(input.data() + begin, transposed, whole_elems, esize);
        // Ragged tail (partial group and partial element bytes) is copied
        // verbatim after the transposed region, exactly like the original.
        std::copy(input.begin() + begin + whole_bytes,
                  input.begin() + begin + len, transposed + whole_bytes);
        // The back-end writes into its worst case; the part keeps an exact
        // copy, so the parts waiting for `out` hold no slack.
        Buffer packed;
        BackendCompress(backend_, ByteSpan(transposed, len), &packed);
        parts[b].Reserve(packed.size());
        parts[b].Append(packed.span());
      },
      {/*grain=*/0, /*max_parallelism=*/static_cast<size_t>(threads_)});

  size_t total = VarintSize(input.size()) + VarintSize(block);
  for (const auto& p : parts) total += VarintSize(p.size()) + p.size();
  out->Reserve(out->size() + total);
  PutVarint64(out, input.size());
  PutVarint64(out, block);
  for (const auto& p : parts) PutVarint64(out, p.size());
  for (const auto& p : parts) out->Append(p.span());
  return Status::OK();
}

Status BitshuffleCompressor::Decompress(ByteSpan input, const DataDesc& desc,
                                        Buffer* out) {
  const size_t esize = DTypeSize(desc.dtype);
  size_t off = 0;
  uint64_t total = 0, block = 0;
  if (!GetVarint64(input, &off, &total) || !GetVarint64(input, &off, &block)) {
    return Status::Corruption("bitshuffle: bad header");
  }
  // Hostile-header guards: the block size divides below, the declared
  // total drives the output allocation, and the block count drives the
  // directory allocation. Each must be plausible before any of them is
  // used (the fuzz suite feeds streams with these fields zeroed/flooded).
  if (block == 0 || block > (uint64_t(1) << 30)) {
    return Status::Corruption("bitshuffle: implausible block size");
  }
  const uint64_t expected =
      desc.num_elements() > 0 ? desc.num_bytes() + 64 : (uint64_t(1) << 33);
  if (total > expected) {
    return Status::Corruption("bitshuffle: declared size disagrees with desc");
  }
  size_t nblocks = (total + block - 1) / block;
  if (total == 0) nblocks = 0;
  if (nblocks > input.size() - off) {  // each block needs >= 1 directory byte
    return Status::Corruption("bitshuffle: implausible block count");
  }

  std::vector<uint64_t> sizes(nblocks);
  for (auto& s : sizes) {
    if (!GetVarint64(input, &off, &s)) {
      return Status::Corruption("bitshuffle: bad block size");
    }
  }
  std::vector<size_t> starts(nblocks);
  for (size_t b = 0; b < nblocks; ++b) {
    starts[b] = off;
    off += sizes[b];
    if (off > input.size()) {
      return Status::Corruption("bitshuffle: truncated blocks");
    }
  }

  size_t base = out->size();
  out->Resize(base + total);
  std::vector<Status> stats(nblocks);
  ThreadPool::Shared().ParallelFor(
      nblocks,
      [&](size_t b) {
        size_t begin = b * block;
        size_t len = std::min<size_t>(block, total - begin);
        uint8_t* transposed = TransposeScratch(len);
        Status st = BackendDecompress(
            backend_, input.subspan(starts[b], sizes[b]), len, transposed);
        if (!st.ok()) {
          stats[b] = st;
          return;
        }
        size_t elems = len / esize;
        size_t whole_elems = (elems / 8) * 8;
        size_t whole_bytes = whole_elems * esize;
        uint8_t* dst = out->data() + base + begin;
        BitUntranspose(transposed, dst, whole_elems, esize);
        std::copy(transposed + whole_bytes, transposed + len,
                  dst + whole_bytes);
      },
      {/*grain=*/0, /*max_parallelism=*/static_cast<size_t>(threads_)});
  for (const auto& st : stats) FCB_RETURN_IF_ERROR(st);
  return Status::OK();
}

}  // namespace fcbench::compressors

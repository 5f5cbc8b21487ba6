#include "compressors/pfpc.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "util/bitio.h"
#include "util/float_bits.h"

namespace fcbench::compressors {

namespace {

/// FPC kernel over 64-bit words (FPC is double-oriented; single-precision
/// input is processed as pairs of floats packed into 64-bit words plus a
/// possible tail, matching how pFPC treats raw byte streams).
class FpcKernel {
 public:
  /// Kernel over caller-owned predictor tables of 2^table_log entries
  /// each, which must be zero.
  FpcKernel(int table_log, uint64_t* fcm, uint64_t* dfcm)
      : mask_((size_t(1) << table_log) - 1), fcm_(fcm), dfcm_(dfcm) {}

  /// Compresses n 64-bit words into `out`: varint code-stream size,
  /// varint residue size, the packed 4-bit codes, then the residual bytes.
  /// The codes and residue are written in place behind room for the two
  /// varints, which then go right-aligned in front of them; returns the
  /// offset in `out` where the chunk starts.
  size_t Compress(const uint8_t* bytes, size_t n, Buffer* out) {
    constexpr size_t kVarintRoom = 20;
    const size_t codes_size = (n + 1) / 2;
    const size_t base = out->size();
    // At most 8 residual bytes per word.
    const size_t bound = kVarintRoom + codes_size + 8 * n;
    out->Reserve(base + bound);
    uint8_t* codes = out->ExtendUninit(bound) + kVarintRoom;
    uint8_t* const residue_start = codes + codes_size;
    uint8_t* residue = residue_start;
    uint8_t pending_nibble = 0;
    bool have_pending = false;

    for (size_t i = 0; i < n; ++i) {
      uint64_t v;
      std::memcpy(&v, bytes + i * 8, 8);
      uint64_t pred_fcm = fcm_[fcm_hash_];
      uint64_t pred_dfcm = last_ + dfcm_[dfcm_hash_];
      uint64_t x_fcm = v ^ pred_fcm;
      uint64_t x_dfcm = v ^ pred_dfcm;

      UpdateTables(v);

      bool use_dfcm = CountLeadZeroBytes(x_dfcm) > CountLeadZeroBytes(x_fcm);
      uint64_t x = use_dfcm ? x_dfcm : x_fcm;
      int lzb = CountLeadZeroBytes(x);
      // FPC code: 3 bits encode {0,1,2,3,4,5,6,8} leading zero bytes; a
      // count of 7 is mapped down to 6 so that code 7 can mean "all 8".
      int code;
      if (lzb == 8) {
        code = 7;
      } else if (lzb == 7) {
        code = 6;
        lzb = 6;
      } else {
        code = lzb;
      }
      uint8_t nibble =
          static_cast<uint8_t>((use_dfcm ? 8 : 0) | code);
      if (have_pending) {
        *codes++ = static_cast<uint8_t>((pending_nibble << 4) | nibble);
        have_pending = false;
      } else {
        pending_nibble = nibble;
        have_pending = true;
      }
      // Residual bytes, most significant first, skipping leading zeros:
      // one 8-byte store of x shifted to the top, then advance by the kept
      // count (the region has 8 bytes per word, so the store always fits;
      // lzb == 8 only when x == 0).
      StoreBigEndian64(residue, x << ((8 * lzb) & 63));
      residue += 8 - lzb;
    }
    if (have_pending) *codes++ = static_cast<uint8_t>(pending_nibble << 4);

    const size_t residue_size = static_cast<size_t>(residue - residue_start);
    uint8_t header[kVarintRoom];
    uint8_t* h = PutVarint64(header, codes_size);
    h = PutVarint64(h, residue_size);
    const size_t header_size = static_cast<size_t>(h - header);
    const size_t start = base + kVarintRoom - header_size;
    std::memcpy(out->data() + start, header, header_size);
    out->Resize(base + kVarintRoom + codes_size + residue_size);
    return start;
  }

  /// Zeroes every table slot a fresh kernel wrote while it compressed
  /// these n words or decoded them, by replaying its hash sequence: the
  /// tables end as they began.
  void ClearWrittenSlots(const uint8_t* bytes, size_t n) {
    fcm_hash_ = dfcm_hash_ = 0;
    last_ = 0;
    for (size_t i = 0; i < n; ++i) {
      uint64_t v;
      std::memcpy(&v, bytes + i * 8, 8);
      UpdateTables(v, 0, 0);
    }
  }

  /// Decodes the n words of chunk `in` into `dst` (8n bytes). `*decoded`
  /// is the number of words written, all n on success; they are the words
  /// that went through the tables.
  Status Decompress(ByteSpan in, size_t n, uint8_t* dst, size_t* decoded) {
    *decoded = 0;
    size_t off = 0;
    uint64_t codes_size = 0, residue_size = 0;
    if (!GetVarint64(in, &off, &codes_size) ||
        !GetVarint64(in, &off, &residue_size) ||
        codes_size > in.size() - off ||
        residue_size > in.size() - off - codes_size) {
      return Status::Corruption("pfpc: bad chunk header");
    }
    if (codes_size < (n + 1) / 2) {
      return Status::Corruption("pfpc: truncated code stream");
    }
    const uint8_t* const codes = in.data() + off;
    const uint8_t* const residue = codes + codes_size;
    size_t rpos = 0;

    for (size_t i = 0; i < n; ++i) {
      uint8_t nibble = (i % 2 == 0) ? (codes[i / 2] >> 4)
                                    : (codes[i / 2] & 0x0f);
      bool use_dfcm = (nibble & 8) != 0;
      int code = nibble & 7;
      int lzb = (code == 7) ? 8 : code;
      size_t keep = 8 - lzb;
      uint64_t x = 0;
      if (residue_size - rpos >= 8) {
        // One big-endian load; the residual is its top `keep` bytes.
        if (keep > 0) x = LoadBigEndian64(residue + rpos) >> (8 * lzb);
      } else if (keep <= residue_size - rpos) {
        for (size_t b = 0; b < keep; ++b) x = (x << 8) | residue[rpos + b];
      } else {
        *decoded = i;
        return Status::Corruption("pfpc: truncated residuals");
      }
      rpos += keep;
      uint64_t pred =
          use_dfcm ? (last_ + dfcm_[dfcm_hash_]) : fcm_[fcm_hash_];
      uint64_t v = x ^ pred;
      UpdateTables(v);
      std::memcpy(dst + i * 8, &v, 8);
    }
    *decoded = n;
    return Status::OK();
  }

 private:
  static int CountLeadZeroBytes(uint64_t x) { return LeadingZeros64(x) / 8; }

  void UpdateTables(uint64_t v) { UpdateTables(v, v, v - last_); }

  /// Stores `fcm_value` and `dfcm_value` in the slots `v` updates and
  /// advances the hashes past `v`.
  void UpdateTables(uint64_t v, uint64_t fcm_value, uint64_t dfcm_value) {
    fcm_[fcm_hash_] = fcm_value;
    fcm_hash_ = ((fcm_hash_ << 6) ^ (v >> 48)) & mask_;
    uint64_t delta = v - last_;
    dfcm_[dfcm_hash_] = dfcm_value;
    dfcm_hash_ = ((dfcm_hash_ << 2) ^ (delta >> 40)) & mask_;
    last_ = v;
  }

  size_t mask_;
  uint64_t* fcm_;
  uint64_t* dfcm_;
  size_t fcm_hash_ = 0;
  size_t dfcm_hash_ = 0;
  uint64_t last_ = 0;
};

/// The two predictor tables of one kernel, kept per thread so a chunk
/// neither allocates 2 x 8 bytes x 2^table_log of tables nor, after a
/// small chunk, clears them whole.
struct PredictorTables {
  std::vector<uint64_t> fcm, dfcm;
  bool dirty = false;  // a large chunk left them to be refilled

  /// The calling thread's tables, all zero.
  static PredictorTables& ForChunk(int table_log) {
    thread_local PredictorTables tables;
    const size_t size = size_t(1) << table_log;
    if (tables.fcm.size() != size) {
      tables.fcm.assign(size, 0);
      tables.dfcm.assign(size, 0);
    } else if (tables.dirty) {
      // Refilled right before use, so the kernel starts on cached tables.
      std::fill(tables.fcm.begin(), tables.fcm.end(), 0);
      std::fill(tables.dfcm.begin(), tables.dfcm.end(), 0);
    }
    tables.dirty = false;
    return tables;
  }

  /// Called once `kernel` coded `n` words: a chunk that touched few slots
  /// (a selector probe) zeroes just those now, a larger one leaves the
  /// tables for the next ForChunk to refill.
  void Release(FpcKernel* kernel, const uint8_t* bytes, size_t n) {
    if (n < fcm.size() / 4) {
      kernel->ClearWrittenSlots(bytes, n);
    } else {
      dirty = true;
    }
  }
};

}  // namespace

PfpcCompressor::PfpcCompressor(const CompressorConfig& config)
    : threads_(ThreadPool::ResolveThreads(config.threads)) {
  traits_.name = "pfpc";
  traits_.year = 2009;
  traits_.domain = "HPC";
  traits_.arch = Arch::kCpu;
  traits_.predictor = PredictorClass::kPrediction;
  traits_.parallel = true;
  traits_.supports_f32 = true;  // processed as packed 64-bit words
  traits_.uses_dimensions = true;
}

Status PfpcCompressor::Compress(ByteSpan input, const DataDesc& desc,
                                Buffer* out) {
  (void)desc;
  // Work in 64-bit words; a tail of < 8 bytes is stored raw.
  size_t n_words = input.size() / 8;
  size_t tail = input.size() - n_words * 8;

  int nthreads = threads_;
  size_t chunk_words = (n_words + nthreads - 1) / nthreads;
  if (chunk_words == 0) chunk_words = 1;
  size_t nchunks = (n_words + chunk_words - 1) / chunk_words;
  if (n_words == 0) nchunks = 0;

  std::vector<Buffer> parts(nchunks);
  std::vector<ByteSpan> chunks(nchunks);
  ThreadPool::Shared().ParallelFor(
      nchunks,
      [&](size_t c) {
        size_t begin = c * chunk_words;
        size_t end = std::min(n_words, begin + chunk_words);
        const uint8_t* words = input.data() + begin * 8;
        PredictorTables& tables = PredictorTables::ForChunk(table_log_);
        FpcKernel kernel(table_log_, tables.fcm.data(), tables.dfcm.data());
        size_t start = kernel.Compress(words, end - begin, &parts[c]);
        tables.Release(&kernel, words, end - begin);
        chunks[c] = parts[c].span().subspan(start);
      },
      {/*grain=*/1, /*max_parallelism=*/static_cast<size_t>(nthreads)});

  size_t total = VarintSize(nchunks) + VarintSize(chunk_words) +
                 VarintSize(tail) + tail;
  for (ByteSpan c : chunks) total += VarintSize(c.size()) + c.size();
  out->Reserve(out->size() + total);
  PutVarint64(out, nchunks);
  PutVarint64(out, chunk_words);
  PutVarint64(out, tail);
  for (ByteSpan c : chunks) PutVarint64(out, c.size());
  for (ByteSpan c : chunks) out->Append(c);
  out->Append(input.data() + n_words * 8, tail);
  return Status::OK();
}

Status PfpcCompressor::Decompress(ByteSpan input, const DataDesc& desc,
                                  Buffer* out) {
  size_t off = 0;
  uint64_t nchunks = 0, chunk_words = 0, tail = 0;
  if (!GetVarint64(input, &off, &nchunks) ||
      !GetVarint64(input, &off, &chunk_words) ||
      !GetVarint64(input, &off, &tail)) {
    return Status::Corruption("pfpc: bad header");
  }
  if (nchunks > input.size() - off) {  // each chunk needs >= 1 header byte
    return Status::Corruption("pfpc: implausible chunk count");
  }
  // Each chunk decodes into its own slice of `out`, so the directory must
  // cover every word exactly once: a short one would leave words unwritten.
  // Every word also takes half a code byte, so the stream bounds the
  // output allocated below.
  const uint64_t total_words = desc.num_bytes() / 8;
  if (total_words == 0 ? nchunks != 0
                       : chunk_words == 0 ||
                             nchunks != (total_words - 1) / chunk_words + 1 ||
                             total_words / 2 > input.size()) {
    return Status::Corruption("pfpc: inconsistent chunk directory");
  }
  std::vector<uint64_t> sizes(nchunks);
  for (auto& s : sizes) {
    if (!GetVarint64(input, &off, &s)) {
      return Status::Corruption("pfpc: bad chunk size");
    }
  }
  // Chunk start offsets for parallel decompression. Every offset is
  // validated as it accumulates so corrupt sizes can neither wrap the
  // offset nor push a subspan past the input.
  std::vector<size_t> starts(nchunks);
  {
    size_t pos = off;
    for (size_t c = 0; c < nchunks; ++c) {
      starts[c] = pos;
      if (sizes[c] > input.size() - pos) {
        return Status::Corruption("pfpc: truncated chunks");
      }
      pos += sizes[c];
    }
    if (tail > input.size() - pos) {
      return Status::Corruption("pfpc: truncated tail");
    }
    off = pos;
  }

  const size_t base = out->size();
  out->Resize(base + total_words * 8);
  uint8_t* const words = out->data() + base;
  std::vector<Status> stats(nchunks);
  ThreadPool::Shared().ParallelFor(
      nchunks,
      [&](size_t c) {
        size_t begin = c * chunk_words;
        size_t end = std::min<uint64_t>(total_words, begin + chunk_words);
        uint8_t* dst = words + begin * 8;
        PredictorTables& tables = PredictorTables::ForChunk(table_log_);
        FpcKernel kernel(table_log_, tables.fcm.data(), tables.dfcm.data());
        size_t decoded = 0;
        stats[c] = kernel.Decompress(input.subspan(starts[c], sizes[c]),
                                     end - begin, dst, &decoded);
        // Every decoded word, and only those, went through the tables,
        // also when the chunk turned out corrupt.
        tables.Release(&kernel, dst, decoded);
      },
      {/*grain=*/1, /*max_parallelism=*/static_cast<size_t>(threads_)});
  for (const auto& st : stats) {
    if (!st.ok()) {
      out->Resize(base);
      return st;
    }
  }
  out->Append(input.data() + off, tail);
  return Status::OK();
}

}  // namespace fcbench::compressors

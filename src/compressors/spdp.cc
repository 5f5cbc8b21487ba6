#include "compressors/spdp.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "codecs/lz4.h"
#include "compressors/transpose.h"
#include "util/bitio.h"

namespace fcbench::compressors {

namespace {

constexpr size_t kDefaultBlock = 1 << 20;  // 1 MiB, SPDP's buffered mode

/// Stages 1-3 of one block, fused into one pass: LNVs2 (r[i] = b[i] -
/// b[i-2], first two bytes copied), DIM8 (byte k of every 8-byte word
/// into plane k; the ragged len % 8 tail appended unshuffled), then LNVs1
/// over the shuffled stream (d[i] = s[i] - s[i-1], running across plane
/// boundaries and into the tail).
void ForwardStages(const uint8_t* in, size_t len, uint8_t* out) {
  auto lnv2 = [in](size_t i) -> uint8_t {
    return static_cast<uint8_t>(in[i] - (i >= 2 ? in[i - 2] : 0));
  };
  const size_t words = len / 8;
  uint8_t prev = 0;
  for (size_t k = 0; k < 8 && words > 0; ++k) {
    uint8_t v = lnv2(k);
    *out++ = static_cast<uint8_t>(v - prev);
    prev = v;
    for (size_t i = k + 8; i < words * 8; i += 8) {
      v = static_cast<uint8_t>(in[i] - in[i - 2]);
      *out++ = static_cast<uint8_t>(v - prev);
      prev = v;
    }
  }
  for (size_t i = words * 8; i < len; ++i) {
    uint8_t v = lnv2(i);
    *out++ = static_cast<uint8_t>(v - prev);
    prev = v;
  }
}

void Lnv2Inverse(const uint8_t* in, size_t n, uint8_t* out) {
  for (size_t i = 0; i < n; ++i) {
    uint8_t prev = (i >= 2) ? out[i - 2] : 0;
    out[i] = static_cast<uint8_t>(in[i] + prev);
  }
}

void Lnv1Inverse(const uint8_t* in, size_t n, uint8_t* out) {
  uint8_t prev = 0;
  for (size_t i = 0; i < n; ++i) {
    prev = static_cast<uint8_t>(in[i] + prev);
    out[i] = prev;
  }
}

}  // namespace

SpdpCompressor::SpdpCompressor(const CompressorConfig& config)
    : block_size_(config.block_size ? config.block_size : kDefaultBlock),
      level_(std::max(1, config.level)) {
  traits_.name = "spdp";
  traits_.year = 2018;
  traits_.domain = "HPC";
  traits_.arch = Arch::kCpu;
  traits_.predictor = PredictorClass::kDictionary;
  traits_.parallel = false;
  traits_.uses_dimensions = false;
}

Status SpdpCompressor::Compress(ByteSpan input, const DataDesc& /*desc*/,
                                Buffer* out) {
  // No up-front worst-case Reserve: it would be charged to MemTracker and
  // distort the Figure 10 footprint metric. The stage buffer is per-thread
  // scratch, reused across blocks and calls (it keeps the largest block the
  // thread has compressed); each LZ block goes straight into `out`, and
  // only the final one reserves its worst case there.
  PutVarint64(out, input.size());
  PutVarint64(out, block_size_);

  thread_local std::vector<uint8_t> staged;
  codecs::Lz4Codec lz(codecs::Lz4Codec::Options{.max_attempts = 4 * level_});

  for (size_t pos = 0; pos < input.size() || pos == 0; pos += block_size_) {
    if (pos > 0 && pos >= input.size()) break;
    size_t len = std::min(block_size_, input.size() - pos);
    // 1-3. LNVs2, DIM8, LNVs1
    if (staged.size() < len) staged.resize(len);
    ForwardStages(input.data() + pos, len, staged.data());
    // 4. LZa6 (LZ4-format, chained matcher), written behind room for the
    //    varint of its worst-case size. The block's own varint is as long
    //    unless the block shrank below 1/128 of that bound; only then does
    //    the (small) block move up against it.
    const size_t bound = codecs::Lz4Codec::CompressBound(len);
    const size_t room = VarintSize(bound);
    if (pos + len >= input.size()) {
      out->Reserve(out->size() + room + bound);
    }
    const size_t start = out->size();
    out->ExtendUninit(room);
    lz.Compress(ByteSpan(staged.data(), len), out);
    const size_t packed = out->size() - start - room;
    uint8_t* const head = out->data() + start;
    const size_t used = static_cast<size_t>(PutVarint64(head, packed) - head);
    if (used < room) {
      std::memmove(head + used, head + room, packed);
      out->Resize(start + used + packed);
    }
    if (input.empty()) break;
  }
  return Status::OK();
}

Status SpdpCompressor::Decompress(ByteSpan input, const DataDesc& desc,
                                  Buffer* out) {
  size_t off = 0;
  uint64_t total = 0, bs = 0;
  if (!GetVarint64(input, &off, &total) || !GetVarint64(input, &off, &bs) ||
      bs == 0) {
    return Status::Corruption("spdp: bad header");
  }
  // Hostile-header guards: both fields size allocations below.
  if (bs > (uint64_t(1) << 30)) {
    return Status::Corruption("spdp: implausible block size");
  }
  const uint64_t expected =
      desc.num_elements() > 0 ? desc.num_bytes() + 64 : (uint64_t(1) << 33);
  if (total > expected) {
    return Status::Corruption("spdp: declared size disagrees with desc");
  }
  codecs::Lz4Codec lz;
  // Per-thread DIM8 scratch, like the encoder's stage buffer: it keeps the
  // largest block the thread has decoded.
  thread_local std::vector<uint8_t> unshuffled;

  uint64_t remaining = total;
  while (remaining > 0 || (total == 0 && off < input.size())) {
    size_t len = static_cast<size_t>(std::min<uint64_t>(bs, remaining));
    uint64_t packed_size = 0;
    if (!GetVarint64(input, &off, &packed_size) ||
        packed_size > input.size() - off) {
      return Status::Corruption("spdp: truncated block");
    }
    // The LZ block decodes straight into `out`; the inverse stages then
    // run in place there, around one scratch copy for DIM8.
    const size_t base = out->size();
    FCB_RETURN_IF_ERROR(
        lz.Decompress(input.subspan(off, packed_size), len, out));
    off += packed_size;
    uint8_t* const block = out->data() + base;

    // Inverse LNVs1 (in place: each byte is read before it is written).
    Lnv1Inverse(block, len, block);
    // Inverse DIM8.
    size_t whole = (len / 8) * 8;
    if (unshuffled.size() < len) unshuffled.resize(len);
    ByteUnshuffle(block, unshuffled.data(), len / 8, 8);
    std::copy(block + whole, block + len, unshuffled.data() + whole);
    // Inverse LNVs2, back into out.
    Lnv2Inverse(unshuffled.data(), len, block);

    remaining -= len;
    if (total == 0) break;
  }
  return Status::OK();
}

}  // namespace fcbench::compressors

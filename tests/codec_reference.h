// Test-only reference coders: the straightforward byte-at-a-time LZ4
// and LZH matchers, the one-count-at-a-time FSE normalization repair, the
// chunk-staging FSE encoder and the generic BitTranspose loop, and on the
// decode side a byte-at-a-time LZ4 decoder, the generic BitUntranspose
// loop and a pFPC decoder that reads each residual a byte at a time,
// written the plain way with fresh tables per call. The production
// kernels are speed layers over these and must produce byte-identical
// output.

#ifndef FCBENCH_TESTS_CODEC_REFERENCE_H_
#define FCBENCH_TESTS_CODEC_REFERENCE_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <vector>

#include "codecs/fse.h"
#include "codecs/huffman.h"
#include "codecs/lzh.h"
#include "util/bitio.h"
#include "util/buffer.h"

namespace fcbench::reference {

inline uint32_t Read32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

template <int kHashLog>
uint32_t Hash4(uint32_t v) {
  return (v * 2654435761u) >> (32 - kHashLog);
}

inline void Lz4LengthExtension(size_t len, Buffer* out) {
  if (len < 15) return;
  len -= 15;
  while (len >= 255) {
    out->PushBack(255);
    len -= 255;
  }
  out->PushBack(static_cast<uint8_t>(len));
}

/// Lz4Codec(Options{max_attempts}).Compress.
inline void Lz4Compress(ByteSpan input, int max_attempts, Buffer* out) {
  constexpr int kMinMatch = 4;
  constexpr size_t kLastLiterals = 5;
  constexpr size_t kMfLimit = 12;
  constexpr int kHashLog = 16;
  const uint8_t* src = input.data();
  const size_t n = input.size();

  if (n < kMfLimit + kMinMatch) {
    out->PushBack(static_cast<uint8_t>(std::min<size_t>(n, 15) << 4));
    Lz4LengthExtension(n, out);
    out->Append(src, n);
    return;
  }

  std::vector<int32_t> head(size_t(1) << kHashLog, -1);
  std::vector<int32_t> prev;
  const bool chained = max_attempts > 1;
  if (chained) prev.assign(n, -1);

  const size_t match_limit = n - kLastLiterals;
  const size_t input_limit = n - kMfLimit;
  size_t anchor = 0;
  size_t pos = 0;
  while (pos < input_limit) {
    uint32_t h = Hash4<kHashLog>(Read32(src + pos));
    int32_t cand = head[h];
    if (chained) prev[pos] = cand;
    head[h] = static_cast<int32_t>(pos);

    size_t best_len = 0;
    size_t best_dist = 0;
    int attempts = max_attempts;
    while (cand >= 0 && attempts-- > 0) {
      size_t dist = pos - static_cast<size_t>(cand);
      if (dist > 65535) break;
      if (Read32(src + cand) == Read32(src + pos)) {
        size_t len = kMinMatch;
        while (pos + len < match_limit && src[cand + len] == src[pos + len]) {
          ++len;
        }
        if (len > best_len) {
          best_len = len;
          best_dist = dist;
        }
      }
      cand = chained ? prev[cand] : -1;
    }
    if (best_len < kMinMatch) {
      ++pos;
      continue;
    }

    size_t lit_len = pos - anchor;
    size_t match_code = best_len - kMinMatch;
    out->PushBack(static_cast<uint8_t>(std::min<size_t>(lit_len, 15) << 4) |
                  static_cast<uint8_t>(std::min<size_t>(match_code, 15)));
    Lz4LengthExtension(lit_len, out);
    out->Append(src + anchor, lit_len);
    uint16_t off = static_cast<uint16_t>(best_dist);
    out->Append(&off, 2);
    Lz4LengthExtension(match_code, out);

    pos += best_len;
    anchor = pos;
    if (pos < input_limit) {
      for (size_t p = pos - 2; p < pos; ++p) {
        uint32_t hh = Hash4<kHashLog>(Read32(src + p));
        if (chained) prev[p] = head[hh];
        head[hh] = static_cast<int32_t>(p);
      }
    }
  }

  size_t lit_len = n - anchor;
  out->PushBack(static_cast<uint8_t>(std::min<size_t>(lit_len, 15) << 4));
  Lz4LengthExtension(lit_len, out);
  out->Append(src + anchor, lit_len);
}

/// FseCodec::NormalizeHistogram, repairing the rounding drift one count
/// per step.
inline void NormalizeHistogram(const uint64_t hist[256], int table_log,
                               uint16_t norm[256]) {
  const uint32_t table_size = 1u << table_log;
  uint64_t total = 0;
  for (int i = 0; i < 256; ++i) total += hist[i];
  std::memset(norm, 0, 256 * sizeof(uint16_t));
  if (total == 0) return;
  uint32_t assigned = 0;
  for (int i = 0; i < 256; ++i) {
    if (hist[i] == 0) continue;
    uint64_t share = (hist[i] * table_size + total / 2) / total;
    if (share == 0) share = 1;
    if (share > table_size) share = table_size;
    norm[i] = static_cast<uint16_t>(share);
    assigned += norm[i];
  }
  while (assigned != table_size) {
    int pick = -1;
    for (int i = 0; i < 256; ++i) {
      if (norm[i] == 0) continue;
      if (assigned > table_size) {
        if (norm[i] > 1 && (pick < 0 || norm[i] > norm[pick])) pick = i;
      } else {
        if (pick < 0 || hist[i] > hist[pick]) pick = i;
      }
    }
    if (pick < 0) break;
    if (assigned > table_size) {
      --norm[pick];
      --assigned;
    } else {
      ++norm[pick];
      ++assigned;
    }
  }
}

/// FseCodec::Compress: the full decode table with its encode index, one
/// staged (bits, count) chunk per symbol, written back-to-front through
/// BitWriter.
inline void FseCompress(ByteSpan input, Buffer* out) {
  using codecs::FseCodec;
  const size_t n = input.size();
  uint64_t hist[256] = {0};
  for (uint8_t b : input) ++hist[b];
  int distinct = 0;
  int last_symbol = 0;
  for (int i = 0; i < 256; ++i) {
    if (hist[i] > 0) {
      ++distinct;
      last_symbol = i;
    }
  }
  auto emit_raw = [&] {
    out->PushBack(FseCodec::kRawMode);
    PutVarint64(out, n);
    out->Append(input);
  };
  if (n == 0) {
    emit_raw();
    return;
  }
  if (distinct == 1) {
    out->PushBack(FseCodec::kRleMode);
    PutVarint64(out, n);
    out->PushBack(static_cast<uint8_t>(last_symbol));
    return;
  }

  const int table_log = FseCodec::ChooseTableLog(n, distinct);
  const uint32_t table_size = 1u << table_log;
  uint16_t norm[256];
  NormalizeHistogram(hist, table_log, norm);
  std::vector<FseCodec::DecodeEntry> table;
  std::vector<uint32_t> encode_index;
  if (!FseCodec::BuildDecodeTable(norm, table_log, &table, &encode_index)
           .ok()) {
    emit_raw();
    return;
  }
  uint32_t cum[257];
  cum[0] = 0;
  for (int s = 0; s < 256; ++s) cum[s + 1] = cum[s] + norm[s];
  auto floor_log2 = [](uint32_t v) { return 31 - std::countl_zero(v); };

  struct Chunk {
    uint32_t bits;
    uint8_t nb;
  };
  std::vector<Chunk> chunks;
  uint32_t state = table_size;
  for (size_t i = n; i-- > 0;) {
    uint8_t s = input[i];
    int nb = table_log - floor_log2(norm[s]);
    if ((state >> nb) < norm[s]) --nb;
    chunks.push_back(Chunk{state & ((1u << nb) - 1), static_cast<uint8_t>(nb)});
    uint32_t x = state >> nb;
    state = table_size + encode_index[cum[s] + (x - norm[s])];
  }
  Buffer payload;
  BitWriter writer(&payload);
  writer.WriteBits(state - table_size, table_log);
  for (size_t i = chunks.size(); i-- > 0;) {
    writer.WriteBits(chunks[i].bits, chunks[i].nb);
  }
  writer.Flush();

  Buffer header;
  header.PushBack(FseCodec::kFseMode);
  PutVarint64(&header, n);
  header.PushBack(static_cast<uint8_t>(table_log));
  PutVarint64(&header, static_cast<uint64_t>(distinct));
  for (int s = 0; s < 256; ++s) {
    if (norm[s] == 0) continue;
    header.PushBack(static_cast<uint8_t>(s));
    PutVarint64(&header, norm[s]);
  }
  PutVarint64(&header, payload.size());
  if (header.size() + payload.size() >= n + 1 + 5) {
    emit_raw();
    return;
  }
  out->Append(header.span());
  out->Append(payload.span());
}

inline void PushVarint(std::vector<uint8_t>* stream, uint64_t v) {
  while (v >= 0x80) {
    stream->push_back(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  stream->push_back(static_cast<uint8_t>(v));
}

/// LzhCodec(opts).Compress, with the reference FSE encoder as its
/// entropy stage when opts.entropy is kFse.
inline void LzhCompress(ByteSpan input, const codecs::LzhCodec::Options& opts,
                        Buffer* out) {
  constexpr int kMinMatch = 4;
  constexpr int kHashLog = 17;
  const uint8_t* src = input.data();
  const size_t n = input.size();
  const size_t window = size_t(1) << opts.window_log;

  std::vector<uint8_t> lit_lens, match_lens, dists, literals;
  size_t num_seq = 0;
  if (n >= kMinMatch + 1) {
    std::vector<int32_t> head(size_t(1) << kHashLog, -1);
    std::vector<int32_t> prev(n, -1);
    size_t anchor = 0;
    size_t pos = 0;
    const size_t limit = n - kMinMatch;
    while (pos <= limit) {
      uint32_t h = Hash4<kHashLog>(Read32(src + pos));
      int32_t cand = head[h];
      prev[pos] = cand;
      head[h] = static_cast<int32_t>(pos);

      size_t best_len = 0;
      size_t best_dist = 0;
      int chain = opts.max_chain;
      while (cand >= 0 && chain-- > 0) {
        size_t dist = pos - static_cast<size_t>(cand);
        if (dist > window) break;
        if (Read32(src + cand) == Read32(src + pos)) {
          size_t len = kMinMatch;
          const size_t max_len = n - pos;
          while (len < max_len && src[cand + len] == src[pos + len]) ++len;
          if (len > best_len) {
            best_len = len;
            best_dist = dist;
          }
        }
        cand = prev[cand];
      }
      if (best_len < kMinMatch) {
        ++pos;
        continue;
      }

      PushVarint(&lit_lens, pos - anchor);
      PushVarint(&match_lens, best_len - kMinMatch);
      PushVarint(&dists, best_dist);
      literals.insert(literals.end(), src + anchor, src + pos);
      ++num_seq;

      size_t end = pos + best_len;
      ++pos;
      while (pos < end && pos <= limit) {
        uint32_t hh = Hash4<kHashLog>(Read32(src + pos));
        prev[pos] = head[hh];
        head[hh] = static_cast<int32_t>(pos);
        ++pos;
      }
      pos = end;
      anchor = end;
    }
    literals.insert(literals.end(), src + anchor, src + n);
  } else {
    literals.assign(src, src + n);
  }

  PutVarint64(out, n);
  PutVarint64(out, num_seq);
  out->PushBack(static_cast<uint8_t>(opts.entropy));
  for (const auto* stream : {&lit_lens, &match_lens, &dists, &literals}) {
    ByteSpan span(stream->data(), stream->size());
    if (opts.entropy == codecs::LzhCodec::Entropy::kFse) {
      FseCompress(span, out);
    } else {
      codecs::HuffmanCodec::Compress(span, out);
    }
  }
}

/// BitTranspose's generic loop: one byte gathered per element per plane
/// group, one byte scattered per plane.
inline void BitTranspose(const uint8_t* src, uint8_t* dst, size_t count,
                         size_t elem_size) {
  const size_t groups = count / 8;
  for (size_t g = 0; g < groups; ++g) {
    const uint8_t* base = src + g * 8 * elem_size;
    for (size_t k = 0; k < elem_size; ++k) {
      for (size_t i = 0; i < 8; ++i) {
        uint8_t plane_byte = 0;
        for (size_t j = 0; j < 8; ++j) {
          plane_byte |= static_cast<uint8_t>(
              ((base[j * elem_size + k] >> i) & 1u) << j);
        }
        dst[(k * 8 + i) * groups + g] = plane_byte;
      }
    }
  }
}

/// BitUntranspose's generic loop: one bit gathered per element per plane.
inline void BitUntranspose(const uint8_t* src, uint8_t* dst, size_t count,
                           size_t elem_size) {
  const size_t groups = count / 8;
  for (size_t g = 0; g < groups; ++g) {
    uint8_t* base = dst + g * 8 * elem_size;
    for (size_t k = 0; k < elem_size; ++k) {
      for (size_t j = 0; j < 8; ++j) {
        uint8_t elem_byte = 0;
        for (size_t i = 0; i < 8; ++i) {
          elem_byte |= static_cast<uint8_t>(
              ((src[(k * 8 + i) * groups + g] >> j) & 1u) << i);
        }
        base[j * elem_size + k] = elem_byte;
      }
    }
  }
}

/// Lz4Codec::Decompress, copying every byte one at a time. Returns false
/// where the production decoder reports Corruption.
inline bool Lz4Decompress(ByteSpan input, size_t decompressed_size,
                          std::vector<uint8_t>* out) {
  out->assign(decompressed_size, 0);
  const size_t n = input.size();
  size_t spos = 0, dpos = 0;
  auto read_len = [&](size_t nibble, size_t* len) {
    *len = nibble;
    if (nibble != 15) return true;
    uint8_t b = 0;
    do {
      if (spos >= n) return false;
      b = input[spos++];
      *len += b;
    } while (b == 255);
    return true;
  };
  while (spos < n) {
    const uint8_t token = input[spos++];
    size_t lit_len = 0;
    if (!read_len(token >> 4, &lit_len)) return false;
    if (lit_len > n - spos || lit_len > decompressed_size - dpos) {
      return false;
    }
    for (size_t i = 0; i < lit_len; ++i) (*out)[dpos++] = input[spos++];
    if (spos >= n) break;
    if (n - spos < 2) return false;
    const size_t off = input[spos] | (size_t{input[spos + 1]} << 8);
    spos += 2;
    if (off == 0 || off > dpos) return false;
    size_t match_len = 0;
    if (!read_len(token & 0x0f, &match_len)) return false;
    match_len += 4;
    if (match_len > decompressed_size - dpos) return false;
    for (size_t i = 0; i < match_len; ++i, ++dpos) {
      (*out)[dpos] = (*out)[dpos - off];
    }
  }
  return dpos == decompressed_size;
}

/// PfpcCompressor::Decompress of a valid stream of `total_words` words:
/// fresh predictor tables (2^16 entries) per chunk, and each residual
/// read one byte at a time. Returns false on a malformed stream.
inline bool PfpcDecompress(ByteSpan in, uint64_t total_words,
                           std::vector<uint8_t>* out) {
  constexpr size_t kMask = (size_t(1) << 16) - 1;
  out->clear();
  size_t off = 0;
  uint64_t nchunks = 0, chunk_words = 0, tail = 0;
  if (!GetVarint64(in, &off, &nchunks) ||
      !GetVarint64(in, &off, &chunk_words) ||
      !GetVarint64(in, &off, &tail) || nchunks > in.size()) {
    return false;
  }
  std::vector<uint64_t> sizes(nchunks);
  for (auto& size : sizes) {
    if (!GetVarint64(in, &off, &size)) return false;
  }
  for (uint64_t c = 0; c < nchunks; ++c) {
    if (sizes[c] > in.size() - off) return false;
    const ByteSpan chunk = in.subspan(off, sizes[c]);
    off += sizes[c];
    const uint64_t n =
        std::min(chunk_words, total_words - std::min(total_words,
                                                     c * chunk_words));
    size_t pos = 0;
    uint64_t codes_size = 0, residue_size = 0;
    if (!GetVarint64(chunk, &pos, &codes_size) ||
        !GetVarint64(chunk, &pos, &residue_size) ||
        codes_size > chunk.size() - pos ||
        residue_size > chunk.size() - pos - codes_size) {
      return false;
    }
    const uint8_t* codes = chunk.data() + pos;
    const uint8_t* residue = codes + codes_size;
    size_t rpos = 0;
    std::vector<uint64_t> fcm(kMask + 1, 0), dfcm(kMask + 1, 0);
    size_t fcm_hash = 0, dfcm_hash = 0;
    uint64_t last = 0;
    for (uint64_t i = 0; i < n; ++i) {
      if (i / 2 >= codes_size) return false;
      const uint8_t nibble =
          i % 2 == 0 ? codes[i / 2] >> 4 : codes[i / 2] & 0x0f;
      const int code = nibble & 7;
      const size_t keep = code == 7 ? 0 : 8 - code;
      if (keep > residue_size - rpos) return false;
      uint64_t x = 0;
      for (size_t b = 0; b < keep; ++b) x = (x << 8) | residue[rpos++];
      const uint64_t v =
          x ^ ((nibble & 8) ? last + dfcm[dfcm_hash] : fcm[fcm_hash]);
      fcm[fcm_hash] = v;
      fcm_hash = ((fcm_hash << 6) ^ (v >> 48)) & kMask;
      const uint64_t delta = v - last;
      dfcm[dfcm_hash] = delta;
      dfcm_hash = ((dfcm_hash << 2) ^ (delta >> 40)) & kMask;
      last = v;
      for (int b = 0; b < 8; ++b) {
        out->push_back(static_cast<uint8_t>(v >> (8 * b)));
      }
    }
  }
  if (tail > in.size() - off) return false;
  out->insert(out->end(), in.begin() + off, in.begin() + off + tail);
  return true;
}

}  // namespace fcbench::reference

#endif  // FCBENCH_TESTS_CODEC_REFERENCE_H_

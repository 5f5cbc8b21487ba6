#include "codecs/lz4.h"

#include <algorithm>
#include <cstring>

#include "codecs/hash_head.h"
#include "util/bitio.h"

namespace fcbench::codecs {

namespace {

constexpr int kMinMatch = 4;
constexpr size_t kLastLiterals = 5;   // spec: last 5 bytes always literals
constexpr size_t kMfLimit = 12;       // spec: match must end 12B before end
constexpr int kHashLog = 16;

inline uint32_t Read32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

inline uint32_t Hash4(uint32_t v) {
  return (v * 2654435761u) >> (32 - kHashLog);
}

/// Emits a length using the 255-extension scheme, given the nibble already
/// holds min(len, 15). Returns the advanced output pointer.
inline uint8_t* EmitLengthExtension(size_t len, uint8_t* op) {
  if (len < 15) return op;
  len -= 15;
  while (len >= 255) {
    *op++ = 255;
    len -= 255;
  }
  *op++ = static_cast<uint8_t>(len);
  return op;
}

/// Literals-only sequence: token, length extension, `len` literal bytes.
inline uint8_t* EmitLastLiterals(const uint8_t* lit, size_t len,
                                 uint8_t* op) {
  *op++ = static_cast<uint8_t>(std::min<size_t>(len, 15) << 4);
  op = EmitLengthExtension(len, op);
  if (len > 0) std::memcpy(op, lit, len);
  return op + len;
}

}  // namespace

// All literals, one token and one extension byte per 255 literals. A match
// sequence never costs more than the literals it replaces (3 bytes of token
// and offset per >= 4 matched bytes), so every parse fits.
size_t Lz4Codec::CompressBound(size_t n) { return n + n / 255 + 16; }

void Lz4Codec::Compress(ByteSpan input, Buffer* out) const {
  const uint8_t* src = input.data();
  const size_t n = input.size();
  // One bounded emission: reserve the worst case, write through a raw
  // pointer, trim to what was written.
  const size_t base = out->size();
  uint8_t* const dst = out->ExtendUninit(CompressBound(n));
  uint8_t* op = dst;

  if (n < kMfLimit + kMinMatch) {
    // Too small for any match: single literals-only sequence.
    op = EmitLastLiterals(src, n, op);
    out->Resize(base + static_cast<size_t>(op - dst));
    return;
  }

  // hash -> most recent position; chains via prev links when attempts > 1.
  HashHead<kHashLog>& head = HashHead<kHashLog>::ForCall(n);
  const bool chained = opts_.max_attempts > 1;
  int32_t* const prev = chained ? ChainForCall(n) : nullptr;

  const uint8_t* const match_end = src + (n - kLastLiterals);
  const size_t input_limit = n - kMfLimit;

  size_t anchor = 0;
  size_t pos = 0;
  while (pos < input_limit) {
    // Find a match at `pos`.
    const uint32_t cur = Read32(src + pos);
    uint32_t h = Hash4(cur);
    int32_t cand = head.Get(h);
    if (chained) prev[pos] = cand;
    head.Set(h, pos);

    // No match can run past match_end, so once one reaches it no later
    // candidate can be strictly longer and the search stops.
    const size_t max_len = static_cast<size_t>(match_end - (src + pos));
    size_t best_len = 0;
    size_t best_dist = 0;
    int attempts = opts_.max_attempts;
    while (cand >= 0 && attempts-- > 0) {
      size_t dist = pos - static_cast<size_t>(cand);
      if (dist > 65535) break;
      if (Read32(src + cand) == cur) {
        size_t len = kMinMatch + CountMatch(src + cand + kMinMatch,
                                            src + pos + kMinMatch, match_end);
        if (len > best_len) {
          best_len = len;
          best_dist = dist;
          if (len == max_len) break;
        }
      }
      cand = chained ? prev[cand] : -1;
    }

    if (best_len < kMinMatch) {
      ++pos;
      continue;
    }

    // Sequence: literals [anchor, pos) + match (best_dist, best_len).
    size_t lit_len = pos - anchor;
    size_t match_code = best_len - kMinMatch;
    *op++ = static_cast<uint8_t>(std::min<size_t>(lit_len, 15) << 4) |
            static_cast<uint8_t>(std::min<size_t>(match_code, 15));
    op = EmitLengthExtension(lit_len, op);
    if (lit_len > 0) std::memcpy(op, src + anchor, lit_len);
    op += lit_len;
    const uint16_t off = static_cast<uint16_t>(best_dist);
    std::memcpy(op, &off, 2);
    op += 2;
    op = EmitLengthExtension(match_code, op);

    pos += best_len;
    anchor = pos;

    // Insert skipped positions into the table so later matches can refer
    // back into the covered region (single probe per position).
    if (pos < input_limit) {
      for (size_t p = pos - 2; p < pos; ++p) {
        uint32_t hh = Hash4(Read32(src + p));
        if (chained) prev[p] = head.Get(hh);
        head.Set(hh, p);
      }
    }
  }

  // Final literals-only sequence.
  op = EmitLastLiterals(src + anchor, n - anchor, op);
  out->Resize(base + static_cast<size_t>(op - dst));
}

Status Lz4Codec::Decompress(ByteSpan input, size_t decompressed_size,
                            Buffer* out) const {
  const size_t base = out->size();
  out->Resize(base + decompressed_size);
  return DecompressTo(input, decompressed_size, out->data() + base);
}

Status Lz4Codec::DecompressTo(ByteSpan input, size_t decompressed_size,
                              uint8_t* dst) const {
  const uint8_t* src = input.data();
  const size_t n = input.size();
  size_t dpos = 0;
  size_t spos = 0;

  auto read_len_ext = [&](size_t nibble, size_t* len) -> bool {
    *len = nibble;
    if (nibble == 15) {
      uint8_t b;
      do {
        if (spos >= n) return false;
        b = src[spos++];
        *len += b;
      } while (b == 255);
    }
    return true;
  };

  while (spos < n) {
    uint8_t token = src[spos++];
    size_t lit_len;
    if (!read_len_ext(token >> 4, &lit_len)) {
      return Status::Corruption("lz4: truncated literal length");
    }
    if (spos + lit_len > n || dpos + lit_len > decompressed_size) {
      return Status::Corruption("lz4: literal run out of bounds");
    }
    if (lit_len > 0) {  // dst may be null for a zero-size output
      std::memcpy(dst + dpos, src + spos, lit_len);
    }
    spos += lit_len;
    dpos += lit_len;
    if (spos >= n) break;  // final literals-only sequence

    if (spos + 2 > n) return Status::Corruption("lz4: truncated offset");
    uint16_t off;
    std::memcpy(&off, src + spos, 2);
    spos += 2;
    if (off == 0 || off > dpos) {
      return Status::Corruption("lz4: invalid match offset");
    }
    size_t match_code;
    if (!read_len_ext(token & 0x0f, &match_code)) {
      return Status::Corruption("lz4: truncated match length");
    }
    size_t match_len = match_code + kMinMatch;
    if (dpos + match_len > decompressed_size) {
      return Status::Corruption("lz4: match run out of bounds");
    }
    const uint8_t* from = dst + dpos - off;
    uint8_t* to = dst + dpos;
    if (off >= 8 &&
        ((match_len + 7) & ~size_t{7}) <= decompressed_size - dpos) {
      // Whole words: with off >= 8 each word's source was written before
      // it is read. The last word may run up to 7 bytes past the match,
      // never past decompressed_size; later sequences overwrite them.
      for (size_t i = 0; i < match_len; i += 8) {
        std::memcpy(to + i, from + i, 8);
      }
    } else {
      // Byte by byte: offsets < length overlap intentionally (RLE-ish).
      for (size_t i = 0; i < match_len; ++i) to[i] = from[i];
    }
    dpos += match_len;
  }

  if (dpos != decompressed_size) {
    return Status::Corruption("lz4: decompressed size mismatch");
  }
  return Status::OK();
}

void Lz4FrameCompress(ByteSpan input, Buffer* out) {
  PutVarint64(out, input.size());
  Lz4Codec().Compress(input, out);
}

Status Lz4FrameDecompress(ByteSpan input, Buffer* out) {
  size_t offset = 0;
  uint64_t orig = 0;
  if (!GetVarint64(input, &offset, &orig)) {
    return Status::Corruption("lz4 frame: bad header");
  }
  return Lz4Codec().Decompress(input.subspan(offset), orig, out);
}

}  // namespace fcbench::codecs

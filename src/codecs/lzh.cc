#include "codecs/lzh.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "codecs/fse.h"
#include "codecs/hash_head.h"
#include "codecs/huffman.h"
#include "util/bitio.h"

namespace fcbench::codecs {

namespace {

constexpr int kMinMatch = 4;
constexpr int kHashLog = 17;

inline uint32_t Read32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

inline uint32_t Hash4(uint32_t v) {
  return (v * 2654435761u) >> (32 - kHashLog);
}

void PutVarintBytes(std::vector<uint8_t>* stream, uint64_t v) {
  while (v >= 0x80) {
    stream->push_back(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  stream->push_back(static_cast<uint8_t>(v));
}

bool GetVarintBytes(ByteSpan s, size_t* off, uint64_t* v) {
  uint64_t result = 0;
  int shift = 0;
  while (*off < s.size() && shift <= 63) {
    uint8_t b = s[(*off)++];
    result |= static_cast<uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) {
      *v = result;
      return true;
    }
    shift += 7;
  }
  return false;
}

}  // namespace

void LzhCodec::Compress(ByteSpan input, Buffer* out) const {
  const uint8_t* src = input.data();
  const size_t n = input.size();
  const size_t window = size_t(1) << opts_.window_log;

  std::vector<uint8_t> lit_lens, match_lens, dists, literals;
  literals.reserve(n / 2);

  size_t num_seq = 0;
  if (n >= kMinMatch + 1) {
    HashHead<kHashLog>& head = HashHead<kHashLog>::ForCall(n);
    std::vector<int32_t> prev(n, -1);

    size_t anchor = 0;
    size_t pos = 0;
    const size_t limit = n - kMinMatch;
    while (pos <= limit) {
      uint32_t h = Hash4(Read32(src + pos));
      int32_t cand = head.Get(h);
      prev[pos] = cand;
      head.Set(h, pos);

      size_t best_len = 0;
      size_t best_dist = 0;
      int chain = opts_.max_chain;
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

      PutVarintBytes(&lit_lens, pos - anchor);
      PutVarintBytes(&match_lens, best_len - kMinMatch);
      PutVarintBytes(&dists, best_dist);
      literals.insert(literals.end(), src + anchor, src + pos);
      ++num_seq;

      size_t end = pos + best_len;
      // Insert every covered position so future matches can land inside.
      ++pos;
      while (pos < end && pos <= limit) {
        uint32_t hh = Hash4(Read32(src + pos));
        prev[pos] = head.Get(hh);
        head.Set(hh, pos);
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
  out->PushBack(static_cast<uint8_t>(opts_.entropy));
  auto entropy_compress = [&](const std::vector<uint8_t>& stream) {
    ByteSpan span(stream.data(), stream.size());
    if (opts_.entropy == Entropy::kFse) {
      FseCodec::Compress(span, out);
    } else {
      HuffmanCodec::Compress(span, out);
    }
  };
  entropy_compress(lit_lens);
  entropy_compress(match_lens);
  entropy_compress(dists);
  entropy_compress(literals);
}

Status LzhCodec::Decompress(ByteSpan input, Buffer* out) {
  size_t off = 0;
  uint64_t orig = 0, num_seq = 0;
  if (!GetVarint64(input, &off, &orig) ||
      !GetVarint64(input, &off, &num_seq)) {
    return Status::Corruption("lzh: bad frame header");
  }

  if (off >= input.size()) {
    return Status::Corruption("lzh: missing entropy backend byte");
  }
  uint8_t entropy_byte = input[off++];
  if (entropy_byte > static_cast<uint8_t>(Entropy::kFse)) {
    return Status::Corruption("lzh: unknown entropy backend");
  }
  const Entropy entropy = static_cast<Entropy>(entropy_byte);

  Buffer lit_lens, match_lens, dists, literals;
  for (Buffer* stream : {&lit_lens, &match_lens, &dists, &literals}) {
    size_t consumed = 0;
    if (entropy == Entropy::kFse) {
      FCB_RETURN_IF_ERROR(
          FseCodec::Decompress(input.subspan(off), &consumed, stream));
    } else {
      FCB_RETURN_IF_ERROR(
          HuffmanCodec::Decompress(input.subspan(off), &consumed, stream));
    }
    off += consumed;
  }

  size_t base = out->size();
  out->Resize(base + orig);
  uint8_t* dst = out->data() + base;
  size_t dpos = 0;
  size_t lit_pos = 0;
  size_t ll_off = 0, ml_off = 0, d_off = 0;
  for (uint64_t s = 0; s < num_seq; ++s) {
    uint64_t lit_run = 0, match_code = 0, dist = 0;
    if (!GetVarintBytes(lit_lens.span(), &ll_off, &lit_run) ||
        !GetVarintBytes(match_lens.span(), &ml_off, &match_code) ||
        !GetVarintBytes(dists.span(), &d_off, &dist)) {
      return Status::Corruption("lzh: truncated sequence streams");
    }
    if (dpos + lit_run > orig || lit_pos + lit_run > literals.size()) {
      return Status::Corruption("lzh: literal overrun");
    }
    std::memcpy(dst + dpos, literals.data() + lit_pos, lit_run);
    dpos += lit_run;
    lit_pos += lit_run;

    uint64_t match_len = match_code + kMinMatch;
    if (dist == 0 || dist > dpos || dpos + match_len > orig) {
      return Status::Corruption("lzh: invalid match");
    }
    const uint8_t* from = dst + dpos - dist;
    for (uint64_t i = 0; i < match_len; ++i) dst[dpos + i] = from[i];
    dpos += match_len;
  }
  size_t tail = literals.size() - lit_pos;
  if (dpos + tail != orig) {
    return Status::Corruption("lzh: size mismatch");
  }
  if (tail > 0) {  // dst/literals may be null for a zero-size payload
    std::memcpy(dst + dpos, literals.data() + lit_pos, tail);
  }
  return Status::OK();
}

}  // namespace fcbench::codecs

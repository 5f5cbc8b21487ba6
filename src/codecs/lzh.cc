#include "codecs/lzh.h"

#include <algorithm>
#include <bit>
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

/// Worst-case sizes of the four token streams of a frame for n input
/// bytes, which bound both what Compress writes and what Decompress
/// accepts. A varint of x takes at most 1 + x / 128 bytes, there are at
/// most n / kMinMatch + 1 sequences, the literal runs and match lengths
/// each sum to at most n, and a distance is below n.
struct StreamSizes {
  size_t lit_lens, match_lens, dists, literals;

  static StreamSizes MaxFor(size_t n) {
    const size_t max_seq = n / kMinMatch + 1;
    const size_t dist_bytes = 1 + std::bit_width(n) / 7;
    return {max_seq + n / 128, max_seq + n / 128, max_seq * dist_bytes, n};
  }
};

/// The four token streams of one call, kept per thread and sized for the
/// worst case so the parse writes through raw pointers.
struct TokenStreams {
  std::vector<uint8_t> lit_lens, match_lens, dists, literals;

  static TokenStreams& ForCall(size_t n) {
    thread_local TokenStreams streams;
    const StreamSizes max = StreamSizes::MaxFor(n);
    Grow(&streams.lit_lens, max.lit_lens);
    Grow(&streams.match_lens, max.match_lens);
    Grow(&streams.dists, max.dists);
    Grow(&streams.literals, max.literals);
    return streams;
  }

 private:
  static void Grow(std::vector<uint8_t>* v, size_t n) {
    if (v->size() < n) v->resize(n);
  }
};

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

  TokenStreams& streams = TokenStreams::ForCall(n);
  uint8_t* ll = streams.lit_lens.data();
  uint8_t* ml = streams.match_lens.data();
  uint8_t* dd = streams.dists.data();
  uint8_t* lit = streams.literals.data();

  size_t num_seq = 0;
  size_t anchor = 0;
  if (n >= kMinMatch + 1) {
    HashHead<kHashLog>& head = HashHead<kHashLog>::ForCall(n);
    int32_t* const prev = ChainForCall(n);

    size_t pos = 0;
    const size_t limit = n - kMinMatch;
    const uint8_t* const end_of_input = src + n;
    while (pos <= limit) {
      const uint32_t cur = Read32(src + pos);
      uint32_t h = Hash4(cur);
      int32_t cand = head.Get(h);
      prev[pos] = cand;
      head.Set(h, pos);

      // A match ends at the input's end at the latest; once one gets there
      // no later candidate can be strictly longer.
      const size_t max_len = n - pos;
      size_t best_len = 0;
      size_t best_dist = 0;
      int chain = opts_.max_chain;
      while (cand >= 0 && chain-- > 0) {
        size_t dist = pos - static_cast<size_t>(cand);
        if (dist > window) break;
        if (Read32(src + cand) == cur) {
          size_t len = kMinMatch + CountMatch(src + cand + kMinMatch,
                                              src + pos + kMinMatch,
                                              end_of_input);
          if (len > best_len) {
            best_len = len;
            best_dist = dist;
            if (len == max_len) break;
          }
        }
        cand = prev[cand];
      }

      if (best_len < kMinMatch) {
        ++pos;
        continue;
      }

      ll = PutVarint64(ll, pos - anchor);
      ml = PutVarint64(ml, best_len - kMinMatch);
      dd = PutVarint64(dd, best_dist);
      std::memcpy(lit, src + anchor, pos - anchor);
      lit += pos - anchor;
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
  }
  if (n > anchor) std::memcpy(lit, src + anchor, n - anchor);
  lit += n - anchor;

  PutVarint64(out, n);
  PutVarint64(out, num_seq);
  out->PushBack(static_cast<uint8_t>(opts_.entropy));
  auto entropy_compress = [&](const std::vector<uint8_t>& stream,
                              const uint8_t* stream_end) {
    ByteSpan span(stream.data(),
                  static_cast<size_t>(stream_end - stream.data()));
    if (opts_.entropy == Entropy::kFse) {
      FseCodec::Compress(span, out);
    } else {
      HuffmanCodec::Compress(span, out);
    }
  };
  entropy_compress(streams.lit_lens, ll);
  entropy_compress(streams.match_lens, ml);
  entropy_compress(streams.dists, dd);
  entropy_compress(streams.literals, lit);
}

Status LzhCodec::Decompress(ByteSpan input, size_t decompressed_size,
                            Buffer* out) {
  const size_t base = out->size();
  out->Resize(base + decompressed_size);
  Status st = DecompressTo(input, decompressed_size, out->data() + base);
  if (!st.ok()) out->Resize(base);
  return st;
}

Status LzhCodec::DecompressTo(ByteSpan input, size_t decompressed_size,
                              uint8_t* dst) {
  size_t off = 0;
  uint64_t orig = 0, num_seq = 0;
  if (!GetVarint64(input, &off, &orig) ||
      !GetVarint64(input, &off, &num_seq)) {
    return Status::Corruption("lzh: bad frame header");
  }
  // The frame's own size drives the allocations below; it must be the one
  // the caller expects, and a sequence covers at least kMinMatch bytes.
  if (orig != decompressed_size) {
    return Status::Corruption("lzh: decompressed size mismatch");
  }
  if (num_seq > orig / kMinMatch) {
    return Status::Corruption("lzh: implausible sequence count");
  }

  if (off >= input.size()) {
    return Status::Corruption("lzh: missing entropy backend byte");
  }
  uint8_t entropy_byte = input[off++];
  if (entropy_byte > static_cast<uint8_t>(Entropy::kFse)) {
    return Status::Corruption("lzh: unknown entropy backend");
  }
  const Entropy entropy = static_cast<Entropy>(entropy_byte);

  // Stream limits: what Compress can emit for `orig` bytes.
  const StreamSizes max = StreamSizes::MaxFor(orig);
  Buffer lit_lens, match_lens, dists, literals;
  const struct {
    Buffer* stream;
    size_t max_size;
  } streams[] = {{&lit_lens, max.lit_lens},
                 {&match_lens, max.match_lens},
                 {&dists, max.dists},
                 {&literals, max.literals}};
  for (const auto& [stream, max_size] : streams) {
    size_t consumed = 0;
    if (entropy == Entropy::kFse) {
      FCB_RETURN_IF_ERROR(FseCodec::Decompress(input.subspan(off), max_size,
                                               &consumed, stream));
    } else {
      FCB_RETURN_IF_ERROR(HuffmanCodec::Decompress(
          input.subspan(off), max_size, &consumed, stream));
    }
    off += consumed;
  }

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
    if (lit_run > orig - dpos || lit_run > literals.size() - lit_pos) {
      return Status::Corruption("lzh: literal overrun");
    }
    if (lit_run > 0) {
      std::memcpy(dst + dpos, literals.data() + lit_pos, lit_run);
    }
    dpos += lit_run;
    lit_pos += lit_run;

    const uint64_t room = orig - dpos;
    if (dist == 0 || dist > dpos || room < kMinMatch ||
        match_code > room - kMinMatch) {
      return Status::Corruption("lzh: invalid match");
    }
    uint64_t match_len = match_code + kMinMatch;
    const uint8_t* from = dst + dpos - dist;
    for (uint64_t i = 0; i < match_len; ++i) dst[dpos + i] = from[i];
    dpos += match_len;
  }
  size_t tail = literals.size() - lit_pos;
  if (tail != orig - dpos) {
    return Status::Corruption("lzh: size mismatch");
  }
  if (tail > 0) {  // dst/literals may be null for a zero-size payload
    std::memcpy(dst + dpos, literals.data() + lit_pos, tail);
  }
  return Status::OK();
}

}  // namespace fcbench::codecs

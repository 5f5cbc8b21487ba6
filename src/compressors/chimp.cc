#include "compressors/chimp.h"

#include <cstring>
#include <vector>

#include "util/bitio.h"
#include "util/float_bits.h"

namespace fcbench::compressors {

namespace {

constexpr int kPrevValues = 128;       // window size (the "128" in chimp128)
constexpr int kIndexBits = 7;          // log2(kPrevValues)
constexpr int kKeyBits = 14;           // low bits used to group values
constexpr size_t kKeySize = size_t(1) << kKeyBits;

/// Rounded leading-zero table: 3-bit code -> leading-zero count, per the
/// Chimp paper. Rounding sacrifices a few bits of precision in the count
/// for a shorter control field.
constexpr int kLeadingRound64[] = {0, 8, 12, 16, 18, 20, 22, 24};
constexpr int kLeadingRound32[] = {0, 4, 6, 8, 10, 12, 14, 16};

template <int kWidth>
int RoundLeadingCode(int lead) {
  const int* table = (kWidth == 64) ? kLeadingRound64 : kLeadingRound32;
  int code = 0;
  for (int i = 0; i < 8; ++i) {
    if (table[i] <= lead) code = i;
  }
  return code;
}

/// Encoder state: the window ring plus a low-bits -> position table that
/// finds a candidate in O(1).
template <typename W>
struct ChimpState {
  std::vector<W> stored = std::vector<W>(kPrevValues, 0);
  std::vector<int64_t> key_to_pos = std::vector<int64_t>(kKeySize, -1);
  int64_t count = 0;  // total values seen

  void Push(W v) {
    stored[count % kPrevValues] = v;
    key_to_pos[static_cast<size_t>(v) & (kKeySize - 1)] = count;
    ++count;
  }

  /// Best earlier value by low-bit grouping; returns ring index or -1.
  int FindCandidate(W v) const {
    int64_t pos = key_to_pos[static_cast<size_t>(v) & (kKeySize - 1)];
    if (pos < 0 || count - pos >= kPrevValues) return -1;
    return static_cast<int>(pos % kPrevValues);
  }
};

template <typename W>
void ChimpEncode(const uint8_t* bytes, size_t n, Buffer* out) {
  constexpr int kWidth = sizeof(W) * 8;
  constexpr int kTrailThreshold = (kWidth == 64) ? 6 : 4;
  const int* lead_table =
      (kWidth == 64) ? kLeadingRound64 : kLeadingRound32;

  // ~kWidth+5 bits per value worst case; reserve for the common case so
  // the hot loop avoids grow-and-memcpy cycles.
  out->Reserve(out->size() + n * sizeof(W) / 2 + 16);
  BitWriter bw(out);
  ChimpState<W> state;
  W prev = 0;
  int prev_lead_code = 0;
  for (size_t i = 0; i < n; ++i) {
    W v;
    std::memcpy(&v, bytes + i * sizeof(W), sizeof(W));
    if (i == 0) {
      bw.WriteBits(v, kWidth);
      state.Push(v);
      prev = v;
      continue;
    }

    int cand = state.FindCandidate(v);
    W xor_cand = (cand >= 0) ? (v ^ state.stored[cand]) : W(~W(0));
    int trail;
    if constexpr (kWidth == 64) {
      trail = TrailingZeros64(xor_cand);
    } else {
      trail = TrailingZeros32(xor_cand);
    }

    if (cand >= 0 && xor_cand == 0) {
      // C = 00: exact repeat of a windowed value; flag + index in one
      // 9-bit write.
      bw.WriteBits(static_cast<uint64_t>(cand), 2 + kIndexBits);
    } else if (cand >= 0 && trail > kTrailThreshold) {
      // C = 01: windowed reference with enough trailing zeros. The 18
      // header bits (flag, index, lead code, length) are fused; the
      // residual rides along too when the total fits one word.
      int lead;
      if constexpr (kWidth == 64) {
        lead = LeadingZeros64(xor_cand);
      } else {
        lead = LeadingZeros32(xor_cand);
      }
      int lead_code = RoundLeadingCode<kWidth>(lead);
      int lead_rounded = lead_table[lead_code];
      int sig = kWidth - lead_rounded - trail;
      uint64_t hdr = (uint64_t(0b01) << 16) |
                     (static_cast<uint64_t>(cand) << 9) |
                     (static_cast<uint64_t>(lead_code) << 6) |
                     static_cast<uint64_t>(sig - 1);
      uint64_t payload = static_cast<uint64_t>(xor_cand >> trail);
      if (sig <= 46) {
        bw.WriteBits((hdr << sig) | payload, 18 + sig);
      } else {
        bw.WriteBits(hdr, 18);
        bw.WriteBits(payload, sig);
      }
    } else {
      // Fall back to the immediately previous value, Gorilla-style but with
      // Chimp's shorter codes.
      W x = v ^ prev;
      int lead;
      if constexpr (kWidth == 64) {
        lead = LeadingZeros64(x);
      } else {
        lead = LeadingZeros32(x);
      }
      int lead_code = RoundLeadingCode<kWidth>(lead);
      if (x != 0 && lead_code == prev_lead_code) {
        // C = 10: same rounded leading-zero count as last time; fuse flag
        // and residual when they fit one word.
        int sig = kWidth - lead_table[lead_code];
        if (sig <= 62) {
          bw.WriteBits((uint64_t(0b10) << sig) | static_cast<uint64_t>(x),
                       2 + sig);
        } else {
          bw.WriteBits(0b10, 2);
          bw.WriteBits(static_cast<uint64_t>(x), sig);
        }
      } else {
        // C = 11: new leading-zero code (x == 0 also lands here with
        // lead_code = 7 -> sig = kWidth - table[7] bits of zeros). Flag and
        // lead code fuse into 5 bits, the residual too when it fits.
        if (x == 0) lead_code = 7;
        int sig = kWidth - lead_table[lead_code];
        uint64_t hdr = (uint64_t(0b11) << 3) | static_cast<uint64_t>(lead_code);
        if (sig <= 59) {
          bw.WriteBits((hdr << sig) | static_cast<uint64_t>(x), 5 + sig);
        } else {
          bw.WriteBits(hdr, 5);
          bw.WriteBits(static_cast<uint64_t>(x), sig);
        }
        prev_lead_code = lead_code;
      }
    }
    state.Push(v);
    prev = v;
  }
  bw.Flush();
}

template <typename W>
Status ChimpDecode(ByteSpan in, size_t n, Buffer* out) {
  constexpr int kWidth = sizeof(W) * 8;
  const int* lead_table =
      (kWidth == 64) ? kLeadingRound64 : kLeadingRound32;

  BitReader br(in);
  // The stream names window slots by ring index, so the decoder needs only
  // the ring itself; the key -> position table is the encoder's search aid.
  W window[kPrevValues] = {};
  W prev = 0;
  int prev_lead_code = 0;
  size_t base = out->size();
  out->Resize(base + n * sizeof(W));
  uint8_t* dst = out->data() + base;
  // On corruption, shrink back to the successfully decoded prefix so the
  // error path never exposes uninitialized buffer contents.
  auto fail = [&](size_t decoded, const char* msg) {
    out->Resize(base + decoded * sizeof(W));
    return Status::Corruption(msg);
  };
  for (size_t i = 0; i < n; ++i) {
    W v;
    if (i == 0) {
      v = static_cast<W>(br.ReadBits(kWidth));
    } else {
      uint32_t flag = static_cast<uint32_t>(br.ReadBits(2));
      switch (flag) {
        case 0b00: {
          int idx = static_cast<int>(br.ReadBits(kIndexBits));
          v = window[idx];
          break;
        }
        case 0b01: {
          // Fused 16-bit header: index (7), lead code (3), length (6).
          uint32_t hdr = static_cast<uint32_t>(br.ReadBits(16));
          int idx = static_cast<int>(hdr >> 9);
          int lead_code = static_cast<int>((hdr >> 6) & 0x7);
          int sig = static_cast<int>(hdr & 0x3f) + 1;
          int trail = kWidth - lead_table[lead_code] - sig;
          if (trail < 0) return fail(i, "chimp: bad 01 window");
          W center = static_cast<W>(br.ReadBits(sig));
          v = window[idx] ^ (center << trail);
          break;
        }
        case 0b10: {
          int sig = kWidth - lead_table[prev_lead_code];
          W x = static_cast<W>(br.ReadBits(sig));
          v = prev ^ x;
          break;
        }
        default: {
          int lead_code = static_cast<int>(br.ReadBits(3));
          int sig = kWidth - lead_table[lead_code];
          W x = static_cast<W>(br.ReadBits(sig));
          v = prev ^ x;
          prev_lead_code = lead_code;
          break;
        }
      }
    }
    if (br.overrun()) return fail(i, "chimp: truncated stream");
    window[i % kPrevValues] = v;
    prev = v;
    std::memcpy(dst + i * sizeof(W), &v, sizeof(W));
  }
  return Status::OK();
}

}  // namespace

ChimpCompressor::ChimpCompressor(const CompressorConfig& /*config*/) {
  traits_.name = "chimp128";
  traits_.year = 2022;
  traits_.domain = "Database";
  traits_.arch = Arch::kCpu;
  traits_.predictor = PredictorClass::kDictionary;
  traits_.parallel = false;
  traits_.uses_dimensions = false;
}

Status ChimpCompressor::Compress(ByteSpan input, const DataDesc& desc,
                                 Buffer* out) {
  size_t esize = DTypeSize(desc.dtype);
  if (input.size() % esize != 0) {
    return Status::InvalidArgument("chimp: input not a whole element count");
  }
  size_t n = input.size() / esize;
  if (desc.dtype == DType::kFloat64) {
    ChimpEncode<uint64_t>(input.data(), n, out);
  } else {
    ChimpEncode<uint32_t>(input.data(), n, out);
  }
  return Status::OK();
}

Status ChimpCompressor::Decompress(ByteSpan input, const DataDesc& desc,
                                   Buffer* out) {
  size_t n = desc.num_elements();
  if (desc.dtype == DType::kFloat64) {
    return ChimpDecode<uint64_t>(input, n, out);
  }
  return ChimpDecode<uint32_t>(input, n, out);
}

}  // namespace fcbench::compressors

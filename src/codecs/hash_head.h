#ifndef FCBENCH_CODECS_HASH_HEAD_H_
#define FCBENCH_CODECS_HASH_HEAD_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

namespace fcbench::codecs {

/// Hash -> most recent position table of the LZ matchers (Lz4Codec,
/// LzhCodec), kept per thread and never cleared between calls.
///
/// Each call claims a fresh tag range [base, base + n) for its n input
/// positions, and an entry stores base + pos. Any entry below the current
/// base was written by an earlier call and reads as empty, so Get returns
/// exactly what a freshly -1-filled table would, and a call costs no
/// table allocation or fill. Bitshuffle calls the matchers once per 4 KiB
/// block, where that fill used to dominate.
template <int kHashLog>
class HashHead {
 public:
  /// This thread's table, re-tagged for one call over `n` positions. Not
  /// re-entrant: a call must finish with the table before the next one on
  /// the same thread starts.
  static HashHead& ForCall(size_t n) {
    thread_local HashHead table;
    table.Claim(n);
    return table;
  }

  /// Most recent position with hash `h` in this call, or -1.
  int32_t Get(uint32_t h) const {
    const uint32_t e = slots_[h];
    return e >= base_ ? static_cast<int32_t>(e - base_) : -1;
  }

  void Set(uint32_t h, size_t pos) {
    slots_[h] = base_ + static_cast<uint32_t>(pos);
  }

 private:
  void Claim(size_t n) {
    if (n >= std::numeric_limits<uint32_t>::max() - next_) {
      // Tags would wrap: start over from a cleared table.
      std::fill(slots_.begin(), slots_.end(), 0u);
      next_ = 1;
    }
    base_ = next_;
    next_ += static_cast<uint32_t>(n);
  }

  // 0 is below every base, so a never-written slot reads as empty.
  std::vector<uint32_t> slots_ =
      std::vector<uint32_t>(size_t(1) << kHashLog, 0u);
  uint32_t base_ = 1;
  uint32_t next_ = 1;
};

/// Previous-position links of the chained matchers, kept per thread and
/// never filled: a call writes slot p whenever it puts position p into
/// the hash head, and it only follows links of positions it took from the
/// head or from an earlier link, so every slot it reads was written
/// earlier in the same call. The table keeps 4 bytes per position of the
/// largest input the thread has matched (4 MiB for SPDP's 1 MiB blocks).
/// Not re-entrant, like HashHead.
inline int32_t* ChainForCall(size_t n) {
  thread_local std::vector<int32_t> chain;
  if (chain.size() < n) chain.resize(n);
  return chain.data();
}

/// Length of the common prefix of `a` and `b`, comparing no byte at or
/// beyond `b_limit`; `a` must precede `b`, so `a` never reads past it.
/// Compares eight bytes per step and finds the first differing byte of a
/// mismatched word from its trailing zero count (little-endian loads).
inline size_t CountMatch(const uint8_t* a, const uint8_t* b,
                         const uint8_t* b_limit) {
  const uint8_t* const start = b;
  while (b_limit - b >= 8) {
    uint64_t x, y;
    std::memcpy(&x, a, 8);
    std::memcpy(&y, b, 8);
    if (const uint64_t diff = x ^ y; diff != 0) {
      if constexpr (std::endian::native == std::endian::little) {
        return static_cast<size_t>(b - start) + std::countr_zero(diff) / 8;
      } else {
        return static_cast<size_t>(b - start) + std::countl_zero(diff) / 8;
      }
    }
    a += 8;
    b += 8;
  }
  while (b < b_limit && *a == *b) {
    ++a;
    ++b;
  }
  return static_cast<size_t>(b - start);
}

}  // namespace fcbench::codecs

#endif  // FCBENCH_CODECS_HASH_HEAD_H_

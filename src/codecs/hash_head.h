#ifndef FCBENCH_CODECS_HASH_HEAD_H_
#define FCBENCH_CODECS_HASH_HEAD_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
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

}  // namespace fcbench::codecs

#endif  // FCBENCH_CODECS_HASH_HEAD_H_

#include "compressors/transpose.h"

#include <cstring>
#include <initializer_list>

namespace fcbench::compressors {

namespace {

/// Transposes an 8x8 byte matrix held in eight 64-bit words (row j =
/// m[j], column k = byte lane k, little-endian). Classic three-stage
/// block-swap network, self-inverse. Lets the fast paths below move whole
/// elements with single unaligned 64-bit loads/stores instead of the
/// byte-at-a-time gather/scatter of the generic loop.
inline void ByteMatrixTranspose8x8(uint64_t m[8]) {
  for (int i = 0; i < 4; ++i) {
    uint64_t& a = m[i];
    uint64_t& b = m[i + 4];
    uint64_t t = ((a >> 32) ^ b) & 0x00000000FFFFFFFFULL;
    b ^= t;
    a ^= t << 32;
  }
  for (int i : {0, 1, 4, 5}) {
    uint64_t& a = m[i];
    uint64_t& b = m[i + 2];
    uint64_t t = ((a >> 16) ^ b) & 0x0000FFFF0000FFFFULL;
    b ^= t;
    a ^= t << 16;
  }
  for (int i : {0, 2, 4, 6}) {
    uint64_t& a = m[i];
    uint64_t& b = m[i + 1];
    uint64_t t = ((a >> 8) ^ b) & 0x00FF00FF00FF00FFULL;
    b ^= t;
    a ^= t << 8;
  }
}

/// Loads one group of 8 elements of K bytes (K in {4, 8}) as K words:
/// byte lane j of m[k] = element j's byte k (little-endian lanes).
template <size_t K>
inline void LoadGroupBytePlanes(const uint8_t* base, uint64_t m[K]) {
  if constexpr (K == 8) {
    for (size_t j = 0; j < 8; ++j) std::memcpy(&m[j], base + j * 8, 8);
    ByteMatrixTranspose8x8(m);
  } else {
    // Row q holds elements q and q + 4 in its low and high halves; the
    // last two stages of the 8x8 network transpose each half as a 4x4
    // byte matrix, leaving byte k of elements 0-3 and 4-7 in row k.
    for (size_t q = 0; q < 4; ++q) {
      uint32_t lo, hi;
      std::memcpy(&lo, base + q * 4, 4);
      std::memcpy(&hi, base + (q + 4) * 4, 4);
      m[q] = lo | (static_cast<uint64_t>(hi) << 32);
    }
    for (size_t i : {0, 1}) {
      uint64_t t = ((m[i] >> 16) ^ m[i + 2]) & 0x0000FFFF0000FFFFULL;
      m[i + 2] ^= t;
      m[i] ^= t << 16;
    }
    for (size_t i : {0, 2}) {
      uint64_t t = ((m[i] >> 8) ^ m[i + 1]) & 0x00FF00FF00FF00FFULL;
      m[i + 1] ^= t;
      m[i] ^= t << 8;
    }
  }
}

/// Inverse of LoadGroupBytePlanes: stores the group whose byte k of
/// element j is byte lane j of m[k]. Each stage is self-inverse, so they
/// run in reverse order.
template <size_t K>
inline void StoreGroupBytePlanes(uint64_t m[K], uint8_t* base) {
  if constexpr (K == 8) {
    ByteMatrixTranspose8x8(m);
    for (size_t j = 0; j < 8; ++j) std::memcpy(base + j * 8, &m[j], 8);
  } else {
    for (size_t i : {0, 2}) {
      uint64_t t = ((m[i] >> 8) ^ m[i + 1]) & 0x00FF00FF00FF00FFULL;
      m[i + 1] ^= t;
      m[i] ^= t << 8;
    }
    for (size_t i : {0, 1}) {
      uint64_t t = ((m[i] >> 16) ^ m[i + 2]) & 0x0000FFFF0000FFFFULL;
      m[i + 2] ^= t;
      m[i] ^= t << 16;
    }
    for (size_t q = 0; q < 4; ++q) {
      const uint32_t lo = static_cast<uint32_t>(m[q]);
      const uint32_t hi = static_cast<uint32_t>(m[q] >> 32);
      std::memcpy(base + q * 4, &lo, 4);
      std::memcpy(base + (q + 4) * 4, &hi, 4);
    }
  }
}

/// f32/f64 fast path of BitTranspose, byte-identical to the generic loop
/// (little-endian lanes). Eight groups (64 elements) per block: the
/// element side moves through whole-word loads, and a byte-matrix
/// transpose across the groups turns the per-plane scatter into single
/// unaligned 64-bit stores. Returns the number of groups done.
template <size_t K>
size_t BitTransposeFast(const uint8_t* src, uint8_t* dst, size_t groups) {
  const size_t plane_bytes = groups;
  size_t g = 0;
  for (; g + 8 <= groups; g += 8) {
    uint64_t planes[8][K];  // [group-in-block][byte k] bit-plane words
    for (size_t t = 0; t < 8; ++t) {
      uint64_t m[K];
      LoadGroupBytePlanes<K>(src + (g + t) * 8 * K, m);
      for (size_t k = 0; k < K; ++k) planes[t][k] = Transpose8x8(m[k]);
    }
    for (size_t k = 0; k < K; ++k) {
      uint64_t y[8];
      for (size_t t = 0; t < 8; ++t) y[t] = planes[t][k];
      ByteMatrixTranspose8x8(y);  // y[i] lane t = plane k*8+i, group g+t
      for (size_t i = 0; i < 8; ++i) {
        std::memcpy(dst + (k * 8 + i) * plane_bytes + g, &y[i], 8);
      }
    }
  }
  return g;
}

/// f32/f64 fast path of BitUntranspose, the exact mirror of
/// BitTransposeFast: plane data arrives through single unaligned 64-bit
/// loads, and each group leaves through whole-element stores. Returns the
/// number of groups done.
template <size_t K>
size_t BitUntransposeFast(const uint8_t* src, uint8_t* dst, size_t groups) {
  const size_t plane_bytes = groups;
  size_t g = 0;
  for (; g + 8 <= groups; g += 8) {
    uint64_t planes[8][K];  // [group-in-block][byte k]
    for (size_t k = 0; k < K; ++k) {
      uint64_t y[8];
      for (size_t i = 0; i < 8; ++i) {
        std::memcpy(&y[i], src + (k * 8 + i) * plane_bytes + g, 8);
      }
      ByteMatrixTranspose8x8(y);  // y[t] lane i = plane k*8+i, group g+t
      for (size_t t = 0; t < 8; ++t) planes[t][k] = Transpose8x8(y[t]);
    }
    for (size_t t = 0; t < 8; ++t) {
      StoreGroupBytePlanes<K>(planes[t], dst + (g + t) * 8 * K);
    }
  }
  return g;
}

}  // namespace

void BitTranspose(const uint8_t* src, uint8_t* dst, size_t count,
                  size_t elem_size) {
  const size_t groups = count / 8;  // 8 elements per transposed word
  const size_t plane_bytes = groups;
  size_t g = 0;
  if (elem_size == 8) {
    g = BitTransposeFast<8>(src, dst, groups);
  } else if (elem_size == 4) {
    g = BitTransposeFast<4>(src, dst, groups);
  }
  // Generic loop; for f32/f64 it only runs the tail groups.
  for (; g < groups; ++g) {
    const uint8_t* base = src + g * 8 * elem_size;
    for (size_t k = 0; k < elem_size; ++k) {
      // Gather byte k of 8 consecutive elements into one 64-bit word:
      // byte lane j holds element j's k-th byte.
      uint64_t x = 0;
      for (size_t j = 0; j < 8; ++j) {
        x |= static_cast<uint64_t>(base[j * elem_size + k]) << (8 * j);
      }
      x = Transpose8x8(x);
      // After transpose, byte lane i holds bit i (of byte k) across the 8
      // elements. That byte belongs to plane k*8+i at group offset g.
      for (size_t i = 0; i < 8; ++i) {
        dst[(k * 8 + i) * plane_bytes + g] =
            static_cast<uint8_t>(x >> (8 * i));
      }
    }
  }
}

void BitUntranspose(const uint8_t* src, uint8_t* dst, size_t count,
                    size_t elem_size) {
  const size_t groups = count / 8;
  const size_t plane_bytes = groups;
  size_t g = 0;
  if (elem_size == 8) {
    g = BitUntransposeFast<8>(src, dst, groups);
  } else if (elem_size == 4) {
    g = BitUntransposeFast<4>(src, dst, groups);
  }
  // Generic loop; for f32/f64 it only runs the tail groups.
  for (; g < groups; ++g) {
    uint8_t* base = dst + g * 8 * elem_size;
    for (size_t k = 0; k < elem_size; ++k) {
      uint64_t x = 0;
      for (size_t i = 0; i < 8; ++i) {
        x |= static_cast<uint64_t>(src[(k * 8 + i) * plane_bytes + g])
             << (8 * i);
      }
      x = Transpose8x8(x);
      for (size_t j = 0; j < 8; ++j) {
        base[j * elem_size + k] = static_cast<uint8_t>(x >> (8 * j));
      }
    }
  }
}

void ByteShuffle(const uint8_t* src, uint8_t* dst, size_t count,
                 size_t elem_size) {
  for (size_t k = 0; k < elem_size; ++k) {
    uint8_t* plane = dst + k * count;
    for (size_t j = 0; j < count; ++j) {
      plane[j] = src[j * elem_size + k];
    }
  }
}

void ByteUnshuffle(const uint8_t* src, uint8_t* dst, size_t count,
                   size_t elem_size) {
  for (size_t k = 0; k < elem_size; ++k) {
    const uint8_t* plane = src + k * count;
    for (size_t j = 0; j < count; ++j) {
      dst[j * elem_size + k] = plane[j];
    }
  }
}

}  // namespace fcbench::compressors

#ifndef FCBENCH_COMPRESSORS_TRANSPOSE_H_
#define FCBENCH_COMPRESSORS_TRANSPOSE_H_

#include <cstddef>
#include <cstdint>

namespace fcbench::compressors {

/// Bit-level transpose kernels shared by bitshuffle (§3.7), ndzip (§3.8)
/// and MPC's BIT component (§4.2).
///
/// BitTranspose views `count` elements of `elem_bits` bits as a
/// count x elem_bits matrix and emits the elem_bits x count transpose, so
/// that the i-th bits of all elements become contiguous. This exposes
/// "subtle patterns, such as identical i-th bits" (paper §6.1.1) to
/// downstream coders.

/// Transposes an 8x8 bit matrix held in a 64-bit word (rows = bytes).
/// Classic Hacker's-Delight kernel; the building block of fast bitshuffle.
inline uint64_t Transpose8x8(uint64_t x) {
  uint64_t t;
  t = (x ^ (x >> 7)) & 0x00aa00aa00aa00aaULL;
  x = x ^ t ^ (t << 7);
  t = (x ^ (x >> 14)) & 0x0000cccc0000ccccULL;
  x = x ^ t ^ (t << 14);
  t = (x ^ (x >> 28)) & 0x00000000f0f0f0f0ULL;
  x = x ^ t ^ (t << 28);
  return x;
}

/// Transposes bits of `count` elements, each `elem_size` bytes wide, from
/// `src` to `dst`. Output layout: bit plane 0 (bit 0 = LSB) of all
/// elements packed first, then plane 1, ... `count` must be a multiple of
/// 8. src and dst must not alias.
///
/// Both directions run f32 and f64 (elem_size 4 and 8) through blocked
/// fast paths, 64 elements at a time, with whole-word loads and stores;
/// other sizes and the last count % 64 elements take a byte-at-a-time
/// loop. Both give the same bytes.
void BitTranspose(const uint8_t* src, uint8_t* dst, size_t count,
                  size_t elem_size);

/// Inverse of BitTranspose.
void BitUntranspose(const uint8_t* src, uint8_t* dst, size_t count,
                    size_t elem_size);

/// Byte-plane shuffle: groups byte k of every element together (the DIM8
/// component of SPDP when elem_size == 8). Works for any elem_size >= 1.
void ByteShuffle(const uint8_t* src, uint8_t* dst, size_t count,
                 size_t elem_size);

/// Inverse of ByteShuffle.
void ByteUnshuffle(const uint8_t* src, uint8_t* dst, size_t count,
                   size_t elem_size);

}  // namespace fcbench::compressors

#endif  // FCBENCH_COMPRESSORS_TRANSPOSE_H_

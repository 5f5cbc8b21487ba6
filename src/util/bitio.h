#ifndef FCBENCH_UTIL_BITIO_H_
#define FCBENCH_UTIL_BITIO_H_

#include <cstdint>
#include <cstring>

#include "util/buffer.h"

namespace fcbench {

/// Stores `w` at `p` most significant byte first; the byte decomposition
/// compiles to bswap + one 8-byte store.
inline void StoreBigEndian64(uint8_t* p, uint64_t w) {
  for (int b = 0; b < 8; ++b) p[b] = static_cast<uint8_t>(w >> (56 - 8 * b));
}

/// Loads 8 bytes at `p` most significant first (one load + bswap).
inline uint64_t LoadBigEndian64(const uint8_t* p) {
  uint64_t w = 0;
  for (int b = 0; b < 8; ++b) w = (w << 8) | p[b];
  return w;
}

/// MSB-first bit writer, as used by Gorilla/Chimp-style XOR coders where
/// variable-length control codes are concatenated most-significant-bit
/// first.
///
/// Implementation: bits accumulate in a 64-bit register and spill to the
/// output buffer a whole word at a time (byte-swapped so the on-wire byte
/// order stays MSB-first). The stream format is identical to the historical
/// one-bit-at-a-time writer — only the number of branches and buffer
/// operations per value changes.
class BitWriter {
 public:
  explicit BitWriter(Buffer* out) : out_(out) {}

  /// Writes the low `nbits` bits of `value`, most significant first.
  /// nbits must be in [0, 64]; bits of `value` above `nbits` are ignored.
  void WriteBits(uint64_t value, int nbits) {
    bits_ += static_cast<size_t>(nbits);
    if (nbits < 64) value &= (uint64_t(1) << nbits) - 1;
    int spill = nacc_ + nbits - 64;
    if (spill < 0) {
      // Fits in the accumulator (nacc_ stays <= 63).
      acc_ = (acc_ << nbits) | value;
      nacc_ += nbits;
      return;
    }
    // Fill the accumulator to exactly 64 bits, emit, keep the remainder.
    int take = 64 - nacc_;  // in [1, 64], and take <= nbits here
    uint64_t top = (spill == 0) ? value : (value >> spill);
    uint64_t word = (nacc_ == 0) ? top : ((acc_ << take) | top);
    EmitWord(word);
    acc_ = (spill == 0) ? 0 : (value & ((uint64_t(1) << spill) - 1));
    nacc_ = spill;
  }

  /// Writes a single bit (0 or 1).
  void WriteBit(uint32_t bit) { WriteBits(bit & 1u, 1); }

  /// Writes `n` one bits followed by a terminating zero bit (unary code).
  void WriteUnary(uint32_t n) {
    while (n >= 32) {
      WriteBits(0xffffffffu, 32);
      n -= 32;
    }
    WriteBits(((uint64_t(1) << n) - 1) << 1, static_cast<int>(n) + 1);
  }

  /// Pads the final partial byte with zero bits and flushes it.
  void Flush() {
    while (nacc_ >= 8) {
      nacc_ -= 8;
      out_->PushBack(static_cast<uint8_t>(acc_ >> nacc_));
    }
    if (nacc_ > 0) {
      out_->PushBack(static_cast<uint8_t>(acc_ << (8 - nacc_)));
      nacc_ = 0;
    }
    acc_ = 0;
  }

  /// Number of bits written through *this* writer so far (excluding flush
  /// padding). Unlike the historical `out->size() * 8 + pending` formula,
  /// this does not overcount when the writer is constructed over a buffer
  /// that already holds data (e.g. multi-part block encoders).
  size_t bit_count() const { return bits_; }

 private:
  void EmitWord(uint64_t w) {
    // Big-endian store keeps the MSB-first on-wire byte order.
    StoreBigEndian64(out_->ExtendUninit(8), w);
  }

  Buffer* out_;
  uint64_t acc_ = 0;   // low nacc_ bits are pending output
  int nacc_ = 0;       // in [0, 63] between calls
  size_t bits_ = 0;
};

/// MSB-first bit reader matching BitWriter.
///
/// Reads refill a cached 64-bit window with (at most) one unaligned load
/// instead of a branch per bit. Past-the-end contract: reads beyond the
/// input return zero bits for the missing positions and set overrun();
/// the flag is sticky — once set it stays set, and no read that crosses
/// the end of input returns fabricated bits without setting it first
/// (refills only ever load real bytes; zero-fill happens in the overrun
/// path itself). `bits_consumed()` never counts fabricated bits.
class BitReader {
 public:
  explicit BitReader(ByteSpan in) : in_(in) {}

  /// Reads one bit; returns 0 past the end (callers detect overruns via
  /// overrun()).
  uint32_t ReadBit() {
    if (navail_ == 0) {
      Refill();
      if (navail_ == 0) {
        overrun_ = true;
        return 0;
      }
    }
    --navail_;
    return static_cast<uint32_t>(acc_ >> navail_) & 1u;
  }

  /// Reads `nbits` bits MSB-first into the low bits of the result.
  /// nbits must be in [0, 64].
  uint64_t ReadBits(int nbits) {
    if (nbits <= 0) return 0;
    if (nbits > 56) {
      // The window tops up in whole bytes, so a single refill may leave
      // fewer than 64 valid bits; split wide reads into two chunks.
      uint64_t hi = ReadBits(nbits - 32);
      return (hi << 32) | ReadBits(32);
    }
    if (navail_ < nbits) {
      Refill();
      if (navail_ < nbits) return ReadPastEnd(nbits);
    }
    navail_ -= nbits;
    return (acc_ >> navail_) & ((uint64_t(1) << nbits) - 1);
  }

  /// Fast path for callers that have pre-validated the stream length:
  /// skips the overrun check. nbits must be in [1, 56] and the stream must
  /// hold at least `nbits` more bits, otherwise behavior is undefined.
  uint64_t ReadBitsUnchecked(int nbits) {
    if (navail_ < nbits) Refill();
    navail_ -= nbits;
    return (acc_ >> navail_) & ((uint64_t(1) << nbits) - 1);
  }

  /// Reads a unary code: counts one bits up to `max_ones`, consuming the
  /// terminating zero bit iff the count stopped before the cap. Returns
  /// the count (overrun() reports truncation, as with ReadBit).
  int ReadUnary(int max_ones) {
    int n = 0;
    while (n < max_ones) {
      if (navail_ == 0) {
        Refill();
        if (navail_ == 0) {
          overrun_ = true;
          return n;
        }
      }
      --navail_;
      if (((acc_ >> navail_) & 1u) == 0) return n;
      ++n;
    }
    return n;
  }

  /// True once a read went past the end of input. Sticky.
  bool overrun() const { return overrun_; }

  /// Number of whole (real) bits consumed; fabricated past-the-end bits
  /// are not counted.
  size_t bits_consumed() const { return byte_ * 8 - navail_; }

 private:
  /// Tops the window up to >= 57 valid bits (or to end of input). Must only
  /// be called with navail_ <= 55, which every public entry point
  /// guarantees (wide reads are split above).
  void Refill() {
    size_t remaining = in_.size() - byte_;
    if (remaining >= 8) {
      uint64_t w;
      std::memcpy(&w, in_.data() + byte_, 8);
      w = ToBigEndian(w);
      int k = (64 - navail_) >> 3;  // whole bytes of room, in [1, 8]
      if (k == 8) {
        acc_ = w;
        navail_ = 64;
      } else {
        acc_ = (acc_ << (8 * k)) | (w >> (64 - 8 * k));
        navail_ += 8 * k;
      }
      byte_ += static_cast<size_t>(k);
    } else {
      while (navail_ <= 56 && byte_ < in_.size()) {
        acc_ = (acc_ << 8) | in_[byte_++];
        navail_ += 8;
      }
    }
  }

  /// Overrun path: delivers the remaining real bits in the top positions
  /// with zero-fill below, flagging the overrun before returning.
  uint64_t ReadPastEnd(int nbits) {
    overrun_ = true;
    uint64_t v = 0;
    if (navail_ > 0) {
      v = (acc_ & ((uint64_t(1) << navail_) - 1)) << (nbits - navail_);
    }
    navail_ = 0;
    acc_ = 0;
    return v;
  }

  static uint64_t ToBigEndian(uint64_t w) {
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
    return w;
#else
    return __builtin_bswap64(w);
#endif
  }

  ByteSpan in_;
  uint64_t acc_ = 0;  // low navail_ bits are pending input (above: garbage)
  int navail_ = 0;
  size_t byte_ = 0;   // next input byte to load into the window
  bool overrun_ = false;
};

/// Appends a little-endian fixed-width integer to a buffer.
template <typename T>
inline void PutFixed(Buffer* out, T v) {
  out->Append(&v, sizeof(T));
}

/// Reads a little-endian fixed-width integer; advances *offset.
/// Returns false if the input is too short. The bounds check is written
/// overflow-safely (`*offset + sizeof(T)` could wrap for a hostile
/// offset near SIZE_MAX and silently pass).
template <typename T>
inline bool GetFixed(ByteSpan in, size_t* offset, T* v) {
  if (*offset > in.size() || sizeof(T) > in.size() - *offset) return false;
  std::memcpy(v, in.data() + *offset, sizeof(T));
  *offset += sizeof(T);
  return true;
}

/// Appends a varint-encoded unsigned 64-bit value (LEB128).
void PutVarint64(Buffer* out, uint64_t v);

/// Writes the varint of `v` at `op` (which must have VarintSize(v) bytes
/// of room) and returns the pointer past it.
inline uint8_t* PutVarint64(uint8_t* op, uint64_t v) {
  while (v >= 0x80) {
    *op++ = static_cast<uint8_t>(v) | 0x80;
    v >>= 7;
  }
  *op++ = static_cast<uint8_t>(v);
  return op;
}

/// Encoded size of the varint of `v`, in [1, 10] bytes.
inline size_t VarintSize(uint64_t v) {
  size_t n = 1;
  for (; v >= 0x80; v >>= 7) ++n;
  return n;
}

/// Decodes a varint; returns false on truncation.
bool GetVarint64(ByteSpan in, size_t* offset, uint64_t* v);

}  // namespace fcbench

#endif  // FCBENCH_UTIL_BITIO_H_

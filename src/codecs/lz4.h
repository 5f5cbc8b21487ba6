#ifndef FCBENCH_CODECS_LZ4_H_
#define FCBENCH_CODECS_LZ4_H_

#include <cstddef>

#include "util/buffer.h"
#include "util/status.h"

namespace fcbench::codecs {

/// From-scratch implementation of the LZ4 block format (Collet 2011), the
/// dictionary back-end of bitshuffle::LZ4 and of the simulated
/// nvCOMP::LZ4 method.
///
/// Block layout: a series of sequences, each
///   token (1B: literal-length nibble | match-length nibble)
///   [literal length extension bytes of 255 ...]
///   literals
///   offset (2B little endian, 1..65535)
///   [match length extension bytes ...]
/// The final sequence is literals-only. Minimum match length is 4
/// (encoded as nibble value 0).
class Lz4Codec {
 public:
  /// Tuning knobs; `max_attempts` > 1 switches the matcher from the fast
  /// single-probe hash to a chained search (higher ratio, lower speed) —
  /// the classic LZ trade-off discussed for SPDP in the paper (§3.2).
  struct Options {
    int max_attempts = 1;
  };

  Lz4Codec() = default;
  explicit Lz4Codec(Options opts) : opts_(opts) {}

  /// Compresses `input` into `out` (appending). Always succeeds; worst case
  /// expands by ~0.4% + 16 bytes. `out` grows once by that worst case and
  /// is trimmed back to the block's size.
  ///
  /// Scratch contract: the hash head (256 KiB) and, for the chained
  /// matcher (max_attempts > 1), a 4-byte chain link per input byte live
  /// in per-thread scratch that is reused, never freed, and never
  /// cleared; the chain keeps the size of the largest input the thread
  /// has compressed (4 MiB for SPDP's 1 MiB blocks). Not re-entrant per
  /// thread, which holds because nothing Compress calls compresses.
  void Compress(ByteSpan input, Buffer* out) const;

  /// Worst-case size of the block Compress writes for `n` input bytes.
  static size_t CompressBound(size_t n);

  /// Decompresses a block produced by Compress, appending to `out`.
  /// `decompressed_size` must be the exact original size (the framing
  /// layer stores it).
  Status Decompress(ByteSpan input, size_t decompressed_size,
                    Buffer* out) const;

  /// Decompress into the `decompressed_size` bytes at `dst`. Matches with
  /// an offset of at least 8 are copied a word at a time, and such a copy
  /// may write up to 7 bytes past the match, but only when they lie inside
  /// `dst`: no write ever goes past dst + decompressed_size. On error the
  /// contents of `dst` are unspecified.
  Status DecompressTo(ByteSpan input, size_t decompressed_size,
                      uint8_t* dst) const;

 private:
  Options opts_;
};

/// Convenience framing: varint original size + LZ4 block.
void Lz4FrameCompress(ByteSpan input, Buffer* out);
Status Lz4FrameDecompress(ByteSpan input, Buffer* out);

}  // namespace fcbench::codecs

#endif  // FCBENCH_CODECS_LZ4_H_

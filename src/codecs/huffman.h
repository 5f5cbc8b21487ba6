#ifndef FCBENCH_CODECS_HUFFMAN_H_
#define FCBENCH_CODECS_HUFFMAN_H_

#include <cstdint>
#include <vector>

#include "util/buffer.h"
#include "util/status.h"

namespace fcbench::codecs {

/// Canonical, length-limited Huffman coder over byte symbols (0..255).
/// Serves as the entropy stage of the zstd-like "lzh" codec and as a
/// standalone reducer in ablation benches.
///
/// Stream layout:
///   varint symbol_count
///   256 x 4-bit code lengths (packed, 128 bytes)  -- 0 means unused
///   varint payload_bit_count
///   payload bits (MSB-first)
class HuffmanCodec {
 public:
  static constexpr int kMaxCodeLen = 15;
  /// Stream mode bytes: entropy-coded vs. verbatim fallback (chosen by
  /// whichever is smaller, so tiny/incompressible streams pay ~2 bytes).
  static constexpr uint8_t kHuffmanMode = 0;
  static constexpr uint8_t kRawMode = 1;

  /// Compresses `input`, appending to `out`.
  static void Compress(ByteSpan input, Buffer* out);

  /// Decompresses a stream produced by Compress, appending to `out`. A
  /// stream that declares more than `max_size` symbols is Corruption,
  /// checked before anything is allocated.
  static Status Decompress(ByteSpan input, size_t max_size,
                           size_t* consumed, Buffer* out);

  /// Computes length-limited canonical code lengths from a histogram.
  /// Exposed for testing (Kraft inequality, optimality bounds).
  static void BuildCodeLengths(const uint64_t hist[256],
                               uint8_t lengths[256]);

  /// Assigns canonical codes from lengths. codes[i] valid iff lengths[i]>0.
  static void AssignCanonicalCodes(const uint8_t lengths[256],
                                   uint16_t codes[256]);
};

}  // namespace fcbench::codecs

#endif  // FCBENCH_CODECS_HUFFMAN_H_

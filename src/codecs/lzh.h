#ifndef FCBENCH_CODECS_LZH_H_
#define FCBENCH_CODECS_LZH_H_

#include <cstddef>

#include "util/buffer.h"
#include "util/status.h"

namespace fcbench::codecs {

/// zstd-style codec built from scratch: greedy LZ77 with chained-hash match
/// search over a large window, followed by entropy coding of the four
/// separated token streams (literal lengths, match lengths and distances
/// as varint bytes, plus the literals), each with FSE (tANS) by default or
/// canonical Huffman (Options::entropy). It stands in for libzstd as the
/// back-end of bitshuffle::zstd (see DESIGN.md substitution table): like
/// zstd it trades slower, search-heavy compression for fast decompression
/// and a higher ratio than LZ4.
class LzhCodec {
 public:
  /// Entropy stage for the token/literal streams. Real zstd uses FSE
  /// (tANS); canonical Huffman is kept for the ablation bench comparing
  /// the two back-ends on identical LZ77 parses.
  enum class Entropy : uint8_t { kHuffman = 0, kFse = 1 };

  struct Options {
    /// Match-search depth. Higher = better ratio, slower compression.
    int max_chain = 32;
    /// log2 of the sliding window (default 1 MiB).
    int window_log = 20;
    /// Entropy coder for the four token streams.
    Entropy entropy = Entropy::kFse;
  };

  LzhCodec() = default;
  explicit LzhCodec(Options opts) : opts_(opts) {}

  /// Compresses `input`, appending a self-describing frame to `out`.
  ///
  /// Scratch contract: the matcher's tables and the token streams live in
  /// per-thread scratch that is reused, never freed, and never cleared
  /// (a per-call tag or write-before-read keeps stale entries unseen):
  /// a 512 KiB hash head, a 4-byte chain link per input byte, and token
  /// streams of up to about 2.3 bytes per input byte, sized by the largest
  /// input the thread has compressed; plus FseCodec's scratch. Not
  /// re-entrant per thread: nothing it calls runs another LZ matcher.
  void Compress(ByteSpan input, Buffer* out) const;

  /// Decompresses a frame produced by Compress, appending to `out`, which
  /// keeps its size on entry when the frame is corrupt.
  /// `decompressed_size` must be the exact original size (the framing
  /// layer knows it); a frame declaring any other size is Corruption,
  /// rejected before its streams are decoded.
  static Status Decompress(ByteSpan input, size_t decompressed_size,
                           Buffer* out);

  /// Decompress into the `decompressed_size` bytes at `dst`. On error the
  /// contents of `dst` are unspecified.
  static Status DecompressTo(ByteSpan input, size_t decompressed_size,
                             uint8_t* dst);

 private:
  Options opts_;
};

}  // namespace fcbench::codecs

#endif  // FCBENCH_CODECS_LZH_H_

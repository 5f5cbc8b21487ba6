#ifndef FCBENCH_CODECS_FSE_H_
#define FCBENCH_CODECS_FSE_H_

#include <cstdint>
#include <vector>

#include "util/buffer.h"
#include "util/status.h"

namespace fcbench::codecs {

/// Finite State Entropy coder (table-based asymmetric numeral system,
/// Duda's tANS in the construction popularized by zstd's FSE). This is the
/// entropy stage that distinguishes real zstd from LZ4, so the zstd-like
/// "lzh" codec can use it as a drop-in alternative to canonical Huffman
/// (LzhCodec::Options::entropy).
///
/// Unlike Huffman, tANS codes symbols in fractional bits: a symbol with
/// normalized frequency f out of 2^table_log costs ~log2(2^table_log / f)
/// bits, approaching the Shannon bound as the table grows. Compression
/// walks the input backwards emitting state-transition bits; decompression
/// walks forward from the stored final state, which makes the decode loop a
/// table lookup plus a bit read (the property zstd exploits for speed).
///
/// Stream layout:
///   mode byte: kFseMode | kRawMode | kRleMode
///   kRawMode: varint n, n verbatim bytes             (entropy ~8 bits/sym)
///   kRleMode: varint n, 1 symbol byte                (single-symbol input)
///   kFseMode: varint n, table_log byte,
///             varint distinct, distinct x (symbol byte, varint freq),
///             varint payload_bytes, payload bits
/// Payload bits are MSB-first: table_log bits of initial decoder state,
/// then per-symbol transition bits.
class FseCodec {
 public:
  /// Hard upper bound on table_log (table size 2^15 entries).
  static constexpr int kMaxTableLog = 15;
  /// Default table_log; 2^11 entries matches zstd's literal tables.
  static constexpr int kDefaultTableLog = 11;

  static constexpr uint8_t kFseMode = 0;
  static constexpr uint8_t kRawMode = 1;
  static constexpr uint8_t kRleMode = 2;

  /// Compresses `input`, appending a self-describing stream to `out`.
  /// Falls back to raw/RLE modes when entropy coding cannot win.
  ///
  /// Scratch contract: the encoder tables and the per-symbol state record
  /// live in per-thread scratch that is reused, never freed, and never
  /// cleared: 3 * 2^table_log bytes of tables (96 KiB at kMaxTableLog)
  /// plus 2 bytes per input byte of the largest input the thread has
  /// compressed. Not re-entrant per thread (nothing it calls compresses).
  static void Compress(ByteSpan input, Buffer* out);

  /// Decompresses a stream produced by Compress, appending to `out` and
  /// reporting the number of input bytes consumed. A stream that declares
  /// more than `max_size` decoded bytes is Corruption, checked before
  /// anything is allocated: RLE and FSE symbols can cost no input bits,
  /// so the input size alone does not bound the output.
  static Status Decompress(ByteSpan input, size_t max_size,
                           size_t* consumed, Buffer* out);

  /// Normalizes a byte histogram so it sums to exactly 2^table_log with
  /// every present symbol assigned frequency >= 1 (the precondition of the
  /// state machine). Exposed for property tests.
  static void NormalizeHistogram(const uint64_t hist[256], int table_log,
                                 uint16_t norm[256]);

  /// Picks a table_log for `n` input bytes with `distinct` present symbols:
  /// large enough to hold every symbol, small enough that the header
  /// amortizes. Exposed for tests.
  static int ChooseTableLog(size_t n, int distinct);

  /// Decode-table entry: emit `symbol`, then next_state =
  /// new_state_base + ReadBits(num_bits).
  struct DecodeEntry {
    uint8_t symbol;
    uint8_t num_bits;
    uint32_t new_state_base;
  };

  /// Builds the decode table (size 2^table_log) from normalized
  /// frequencies using the zstd spread step. Also fills, when non-null,
  /// `encode_index`: for symbol s with normalized frequency f, slot
  /// encode_index[cumulative(s) + (x - f)] is the table index whose entry
  /// decodes to (s, x), x in [f, 2f). Returns an error when the
  /// frequencies do not sum to 2^table_log.
  static Status BuildDecodeTable(const uint16_t norm[256], int table_log,
                                 std::vector<DecodeEntry>* table,
                                 std::vector<uint32_t>* encode_index);
};

}  // namespace fcbench::codecs

#endif  // FCBENCH_CODECS_FSE_H_

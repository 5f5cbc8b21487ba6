#ifndef FCBENCH_COMPRESSORS_SPDP_H_
#define FCBENCH_COMPRESSORS_SPDP_H_

#include "core/compressor.h"

namespace fcbench::compressors {

/// SPDP (Claggett, Azimi & Burtscher, DCC 2018; paper §3.2).
///
/// Auto-synthesized four-component pipeline (the winner of the authors'
/// 9.4M-combination sweep):
///   1. LNVs2 — subtract the byte two positions back (stride-2 byte delta)
///   2. DIM8  — group every 8th byte together (byte-plane shuffle),
///              placing exponent bytes into consecutive runs
///   3. LNVs1 — delta between consecutive bytes of the shuffled stream
///   4. LZa6  — fast LZ77 variant; we use our from-scratch LZ4-format
///              codec with a chained matcher, reproducing the
///              ratio/throughput trade-off the paper attributes to LZa6's
///              sliding-window search (§3.2 insights)
/// Precision-agnostic: operates on the raw byte stream, block by block.
///
/// Scratch contract: Compress and Decompress each keep one stage buffer
/// per thread, as large as the largest block that thread has coded (1 MiB
/// by default) and never freed; the LZ4 matcher adds its own per-thread
/// chain of 4 bytes per block byte (see lz4.h). Not re-entrant per thread.
class SpdpCompressor : public Compressor {
 public:
  explicit SpdpCompressor(const CompressorConfig& config);

  const CompressorTraits& traits() const override { return traits_; }

  Status Compress(ByteSpan input, const DataDesc& desc,
                  Buffer* out) override;
  Status Decompress(ByteSpan input, const DataDesc& desc,
                    Buffer* out) override;

  static std::unique_ptr<Compressor> Make(const CompressorConfig& config) {
    return std::make_unique<SpdpCompressor>(config);
  }

 private:
  CompressorTraits traits_;
  size_t block_size_;
  int level_;
};

}  // namespace fcbench::compressors

#endif  // FCBENCH_COMPRESSORS_SPDP_H_

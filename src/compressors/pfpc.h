#ifndef FCBENCH_COMPRESSORS_PFPC_H_
#define FCBENCH_COMPRESSORS_PFPC_H_

#include "core/compressor.h"
#include "util/thread_pool.h"

namespace fcbench::compressors {

/// pFPC (Burtscher & Ratanaworabhan 2009; paper §3.6).
///
/// Prediction-based parallel compressor: two hash-table predictors (FCM
/// predicting the next value from value history, DFCM predicting the next
/// delta from delta history) race per element; the winner (more leading
/// zero bytes in the XOR residual) is recorded in 1 bit, the leading-zero
/// byte count in 3 bits, and the remaining residual bytes are copied.
///
/// Parallelism: the input is split into per-thread chunks, each compressed
/// with private hash tables (the paper notes pFPC prefers thread count
/// aligned with data dimensionality; our chunking honours
/// CompressorConfig::threads and the Table 7/8 scalability sweep).
///
/// Scratch contract: Compress and Decompress keep each worker's two
/// predictor tables (2 x 8 bytes x 2^16 = 1 MiB) per thread instead of
/// allocating them per chunk. A chunk that touched few slots (a selector
/// probe) zeroes just those when it ends; after a larger one the tables
/// are refilled right before the next chunk on that thread, so that chunk
/// starts on cached tables. A chunk must finish with them before the next
/// one on that thread starts, which holds because the kernel calls
/// nothing that compresses or decompresses.
class PfpcCompressor : public Compressor {
 public:
  explicit PfpcCompressor(const CompressorConfig& config);

  const CompressorTraits& traits() const override { return traits_; }

  Status Compress(ByteSpan input, const DataDesc& desc,
                  Buffer* out) override;
  Status Decompress(ByteSpan input, const DataDesc& desc,
                    Buffer* out) override;

  static std::unique_ptr<Compressor> Make(const CompressorConfig& config) {
    return std::make_unique<PfpcCompressor>(config);
  }

 private:
  CompressorTraits traits_;
  int threads_;
  /// log2 of predictor table entries; pFPC's main memory/ratio knob.
  int table_log_ = 16;
};

}  // namespace fcbench::compressors

#endif  // FCBENCH_COMPRESSORS_PFPC_H_

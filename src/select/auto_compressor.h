#ifndef FCBENCH_SELECT_AUTO_COMPRESSOR_H_
#define FCBENCH_SELECT_AUTO_COMPRESSOR_H_

#include <memory>
#include <string>
#include <string_view>

#include "core/chunked.h"
#include "core/objective.h"
#include "select/selector.h"

namespace fcbench::select {

/// Registry name of the auto method for `objective`:
///   kBalanced -> "auto", kSpeed -> "auto-speed",
///   kStorageReduction -> "auto-ratio".
std::string_view AutoMethodName(Objective objective);

/// True when `method` names an auto variant; fills `objective` when
/// non-null.
bool ParseAutoMethod(std::string_view method, Objective* objective);

/// Online adaptive compressor: the FCPK chunk container codec
/// (core/chunked.h, the par-* adapters' codec) with each chunk's method
/// chosen by the Selector, written as a version-2 mixed container that
/// records the per-chunk method — self-describing, checksummed,
/// random-access decodable (ChunkedCompressor::DecompressChunk). Chunks
/// are CompressorConfig::chunk_bytes, the same knob as the par-*
/// adapters, and count in the same chunked.* metrics.
///
/// Determinism: ChunkedCompressor asks for the methods serially in chunk
/// order, so the Selector's decision cache fills identically on every
/// run, and only chunk compression uses the shared pool. Output is
/// therefore byte-identical across thread counts, the same guarantee
/// par-<m> gives. A version-1 container names no method, so decoding
/// one (even an empty one) fails with Corruption.
///
/// Attach a SelectionTrace via CompressorConfig::selection_trace to
/// capture per-chunk decisions (the --explain API); entries are
/// appended on every Compress call.
class AutoCompressor : public ChunkedCompressor {
 public:
  static std::unique_ptr<Compressor> Make(Objective objective,
                                          const CompressorConfig& config);

  AutoCompressor(Objective objective, const CompressorConfig& config);

 protected:
  std::string ChooseMethod(size_t chunk, ByteSpan raw,
                           const DataDesc& chunk_desc) override;

 private:
  Selector selector_;
  SelectionTrace* trace_ = nullptr;
};

}  // namespace fcbench::select

#endif  // FCBENCH_SELECT_AUTO_COMPRESSOR_H_

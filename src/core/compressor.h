#ifndef FCBENCH_CORE_COMPRESSOR_H_
#define FCBENCH_CORE_COMPRESSOR_H_

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/format.h"
#include "gpusim/device.h"
#include "util/buffer.h"
#include "util/status.h"

namespace fcbench::select {
struct SelectionTrace;
}  // namespace fcbench::select

namespace fcbench {

/// Hardware platform a method targets (Table 1 "arch.").
enum class Arch { kCpu, kGpu };

/// Predictor/trait family used for the Figure 6b grouping.
enum class PredictorClass {
  kLorenzo,     // fpzip, ndzip (CPU+GPU)
  kDelta,       // Gorilla, BUFF, GFC, MPC
  kDictionary,  // bitshuffle::LZ4/zstd, Chimp, nvCOMP::LZ4, SPDP
  kPrediction,  // pFPC, nvCOMP::bitcomp
  kNeural,      // Dzip-style
};

std::string_view PredictorClassName(PredictorClass p);

/// Static metadata of a compression method (the Table 1 row).
struct CompressorTraits {
  std::string name;
  int year = 0;
  std::string domain;  // "HPC", "Database", "general"
  Arch arch = Arch::kCpu;
  PredictorClass predictor = PredictorClass::kDelta;
  bool parallel = false;
  bool supports_f32 = true;
  bool supports_f64 = true;
  /// True when the method needs dimensional extent for best ratios (§6.1.5).
  bool uses_dimensions = false;
};

/// Runtime knobs shared by all methods.
struct CompressorConfig {
  /// Worker threads for parallel methods (pFPC defaults to 8 pthreads).
  int threads = 8;
  /// Block/page size in bytes for blockable methods; 0 = method default.
  /// Swept by the Table 10 experiment (4 KiB / 64 KiB / 8 MiB).
  size_t block_size = 0;
  /// `par-<method>` adapters only: raw bytes per parallel chunk, rounded
  /// down to a whole element count (0 = 256 KiB default). The chunked
  /// wire format depends on this value but never on `threads`.
  size_t chunk_bytes = 0;
  /// Effort level (search depth for dictionary methods).
  int level = 1;
  /// fpzip only: number of most-significant bits kept per value
  /// (0 = lossless). fpzip is the one studied method with a native lossy
  /// mode (paper §3.1: "provides both lossless and lossy compression").
  int fpzip_precision_bits = 0;
  /// auto* only: when non-null, per-chunk selection decisions are
  /// appended here (the --explain API). Not owned; must outlive every
  /// Compress call. See select/selector.h.
  select::SelectionTrace* selection_trace = nullptr;
};

/// Abstract lossless floating-point compressor; every §3/§4 method
/// implements this interface.
///
/// Compress/Decompress operate on raw little-endian IEEE-754 arrays; `desc`
/// carries element type and dimensional extent. Implementations must be
/// exactly invertible: Decompress(Compress(x)) == x bit-for-bit (BUFF is
/// the documented exception when `desc.precision_digits` understates the
/// data's precision — see §3.3).
class Compressor {
 public:
  virtual ~Compressor() = default;

  virtual const CompressorTraits& traits() const = 0;

  /// Compresses `input` (desc.num_bytes() bytes), appending to `out`.
  virtual Status Compress(ByteSpan input, const DataDesc& desc,
                          Buffer* out) = 0;

  /// Decompresses a stream produced by Compress with the same `desc`,
  /// appending to `out`.
  virtual Status Decompress(ByteSpan input, const DataDesc& desc,
                            Buffer* out) = 0;

  /// For GPU-simulated methods: modeled device timing (kernel + PCIe
  /// copies) of the most recent Compress/Decompress call. CPU methods
  /// return nullptr and are timed by wall clock (paper §5.2 methodology).
  virtual const gpusim::GpuTiming* last_gpu_timing() const { return nullptr; }
};

/// Factory signature used by the registry. A std::function (not a bare
/// function pointer) so adapter registrations — the `par-<method>`
/// chunk-parallel wrappers — can close over the wrapped method's name.
using CompressorFactory =
    std::function<std::unique_ptr<Compressor>(const CompressorConfig&)>;

/// Central registry of every studied method. Names follow the paper:
///   pfpc, spdp, fpzip, bitshuffle_lz4, bitshuffle_zstd, ndzip_cpu, buff,
///   gorilla, chimp128, gfc, mpc, nv_lz4, nv_bitcomp, ndzip_gpu, dzip_nn
/// plus a chunk-parallel `par-<method>` variant of every lossless CPU
/// method (see core/chunked.h) and the online adaptive selectors `auto`,
/// `auto-speed`, `auto-ratio` (see select/auto_compressor.h).
class CompressorRegistry {
 public:
  static CompressorRegistry& Global();

  void Register(std::string name, CompressorFactory factory);

  /// Instantiates a method by name; error if unknown.
  Result<std::unique_ptr<Compressor>> Create(
      std::string_view name, const CompressorConfig& config = {}) const;

  /// Names in registration (paper table column) order.
  std::vector<std::string> Names() const;

  bool Contains(std::string_view name) const;

 private:
  std::vector<std::pair<std::string, CompressorFactory>> entries_;
};

/// Registers the full method suite (idempotent). Called by the registry on
/// first use; exposed for tests.
void RegisterAllCompressors();

}  // namespace fcbench

#endif  // FCBENCH_CORE_COMPRESSOR_H_

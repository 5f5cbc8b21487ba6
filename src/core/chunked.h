#ifndef FCBENCH_CORE_CHUNKED_H_
#define FCBENCH_CORE_CHUNKED_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/compressor.h"

namespace fcbench {

/// The FCPK chunk container codec: splits the input into fixed-size
/// element-aligned chunks, compresses the chunks in parallel on the shared
/// pool, and emits a framed container that decodes either in parallel or
/// one chunk at a time (random access). It is the container's only writer
/// and reader: a par-<m> adapter is a ChunkedCompressor with one implicit
/// method, and the auto selectors (select/auto_compressor.h) derive from
/// it and only choose each chunk's method.
///
/// Container layout (all integers little-endian / varint):
///   u32     magic "FCPK"
///   varint  version (1 = single method, 2 = mixed methods)
///   varint  raw_bytes         total uncompressed payload
///   varint  chunk_raw_bytes   raw bytes per chunk (last chunk may be short)
///   [v2]    varint num_methods, then per method: varint len, name bytes
///   varint  num_chunks
///   [v2]    varint method_id[num_chunks]   index into the method table
///   varint  payload_size[num_chunks]
///   u64     xxh64 of every byte above (header + directory)
///   payload bytes, concatenated in chunk order
///
/// Version 1 streams carry no method metadata — the wrapping layer (the
/// par-<m> registry name, a ColumnStore manifest) names the method.
/// Version 2 streams are self-describing mixed-method containers: every
/// chunk names its own method via the table, in order of first use. The
/// table is never empty: an empty container's names bitshuffle_lz4. Both
/// versions checksum the whole header+directory, and a v2 method table
/// may only name plain base methods — adapter names (par-*, auto*) are
/// rejected at parse time so a hostile container cannot nest decoders.
///
/// Determinism: the layout is a pure function of (input, per-chunk
/// methods, chunk_raw_bytes). `CompressorConfig::threads` only bounds
/// execution parallelism — the inner methods always run with threads=1
/// so that thread-count-sensitive formats (pFPC's chunk directory) cannot
/// leak scheduling into the bytes, and ChooseMethod runs serially in
/// chunk order. Output is byte-identical for any thread count.
class ChunkedCompressor : public Compressor {
 public:
  static constexpr size_t kDefaultChunkBytes = 256 << 10;
  static constexpr uint32_t kMagic = 0x4B504346u;  // "FCPK"
  static constexpr uint64_t kVersionSingle = 1;
  static constexpr uint64_t kVersionMixed = 2;
  /// Directory plausibility bounds shared by writer and reader.
  static constexpr uint64_t kMaxMethods = 64;
  static constexpr uint64_t kMaxMethodNameLen = 48;

  /// Wraps registry method `method`; fails if the method is unknown.
  static Result<std::unique_ptr<Compressor>> Wrap(
      std::string_view method, const CompressorConfig& config = {});

  /// Registry-facing factory: same as Wrap but never fails at
  /// construction — an unknown base method surfaces as an error status
  /// from Compress/Decompress instead.
  static std::unique_ptr<Compressor> Make(std::string method,
                                          const CompressorConfig& config);

  ChunkedCompressor(std::string method, const CompressorConfig& config);

  const CompressorTraits& traits() const override { return traits_; }
  const std::string& base_method() const { return method_; }

  Status Compress(ByteSpan input, const DataDesc& desc,
                  Buffer* out) override;
  Status Decompress(ByteSpan input, const DataDesc& desc,
                    Buffer* out) override;

  /// Parsed directory of a chunked stream; offsets index into the same
  /// span that was passed to ReadIndex.
  struct Index {
    uint64_t version = kVersionSingle;
    uint64_t raw_bytes = 0;
    uint64_t chunk_raw_bytes = 0;
    /// Mixed containers only (version 2): method table + per-chunk ids.
    std::vector<std::string> methods;
    std::vector<uint32_t> method_ids;
    std::vector<uint64_t> payload_sizes;
    std::vector<size_t> payload_offsets;

    size_t num_chunks() const { return payload_sizes.size(); }
    /// Raw (uncompressed) byte count of chunk `i`.
    uint64_t RawSizeOfChunk(size_t i) const;
    /// Method recorded for chunk `i`; empty for version-1 streams (the
    /// wrapping layer knows the method).
    std::string_view MethodOfChunk(size_t i) const;
  };

  /// Validates and parses the container header + directory (checksummed;
  /// truncation and bit corruption both surface as Corruption). Mixed
  /// (v2) directories additionally validate every per-chunk method id
  /// against the method table and every table entry against the
  /// plain-method naming rule.
  static Result<Index> ReadIndex(ByteSpan input);

  /// Decodes only chunk `index`, appending its raw bytes to `out`. `desc`
  /// is the descriptor of the *whole* array (as passed to Decompress);
  /// used for element width and total-size validation. This is the
  /// random-access path query engines use to touch one chunk of a column.
  Status DecompressChunk(ByteSpan input, const DataDesc& desc, size_t index,
                         Buffer* out);

 protected:
  /// A mixed-method codec with no implicit method and the given traits:
  /// Compress takes every chunk's method from ChooseMethod and writes
  /// version 2; Decompress and DecompressChunk reject version-1
  /// containers, empty ones too, as naming no method.
  ChunkedCompressor(CompressorTraits traits, const CompressorConfig& config);

  /// Method for chunk `chunk` of the input, whose raw bytes are `raw`.
  /// Compress calls it for every chunk, serially in chunk order and
  /// before any chunk compresses, so a chooser with state sees the same
  /// sequence for any thread count. By default the implicit method.
  virtual std::string ChooseMethod(size_t chunk, ByteSpan raw,
                                   const DataDesc& chunk_desc);

 private:
  /// ReadIndex plus the checks against `desc` every decode needs.
  Result<Index> OpenIndex(ByteSpan input, const DataDesc& desc) const;
  /// Decodes chunk `chunk` with its recorded method (v2) or method_ (v1),
  /// appending to `out`.
  Status DecodeOne(const Index& idx, ByteSpan input, const DataDesc& desc,
                   size_t chunk, Buffer* out) const;

  CompressorTraits traits_;
  std::string method_;             // empty for a mixed-method codec
  CompressorConfig inner_config_;  // threads pinned to 1; see class doc
  size_t chunk_bytes_;
  int threads_;
  Status init_status_;
};

}  // namespace fcbench

#endif  // FCBENCH_CORE_CHUNKED_H_

#include "core/chunked.h"

#include <algorithm>
#include <cctype>
#include <cstring>

#include "obs/metrics.h"
#include "obs/span.h"
#include "util/bitio.h"
#include "util/hash.h"
#include "util/thread_pool.h"

namespace fcbench {

namespace {

/// Adapter names may never appear inside a mixed method table: a
/// container that nests auto/par decoders could recurse on hostile
/// input. Only plain base methods are storable.
bool IsPlainMethodName(std::string_view name) {
  if (name.empty() || name.size() > ChunkedCompressor::kMaxMethodNameLen) {
    return false;
  }
  if (name.rfind("par-", 0) == 0 || name.rfind("auto", 0) == 0) return false;
  for (char c : name) {
    if (!(std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
          c == '-')) {
      return false;
    }
  }
  return true;
}

/// Serializes a header+directory for `payload_sizes` chunks, appending
/// to `out`. With a non-empty `methods` table (and matching `method_ids`)
/// a version-2 mixed directory is written; otherwise version 1. The
/// payload bytes follow it verbatim.
Status WriteDirectory(uint64_t raw_bytes, uint64_t chunk_raw_bytes,
                      const std::vector<std::string>& methods,
                      const std::vector<uint32_t>& method_ids,
                      const std::vector<uint64_t>& payload_sizes,
                      Buffer* out) {
  using C = ChunkedCompressor;
  const bool mixed = !methods.empty();
  if (mixed && (methods.size() > C::kMaxMethods ||
                method_ids.size() != payload_sizes.size())) {
    return Status::InvalidArgument("chunked: malformed method directory");
  }
  for (const auto& m : methods) {
    if (!IsPlainMethodName(m)) {
      return Status::InvalidArgument("chunked: '" + m +
                                     "' is not a storable method name");
    }
  }
  for (uint32_t id : method_ids) {
    if (id >= methods.size()) {
      return Status::InvalidArgument("chunked: method id out of range");
    }
  }
  Buffer header;
  PutFixed(&header, C::kMagic);
  PutVarint64(&header, mixed ? C::kVersionMixed : C::kVersionSingle);
  PutVarint64(&header, raw_bytes);
  PutVarint64(&header, chunk_raw_bytes);
  if (mixed) {
    PutVarint64(&header, methods.size());
    for (const auto& m : methods) {
      PutVarint64(&header, m.size());
      header.Append(m.data(), m.size());
    }
  }
  PutVarint64(&header, payload_sizes.size());
  if (mixed) {
    for (uint32_t id : method_ids) PutVarint64(&header, id);
  }
  for (uint64_t s : payload_sizes) PutVarint64(&header, s);
  PutFixed(&header, XxHash64(header.span()));
  out->Append(header.span());
  return Status::OK();
}

DataDesc ChunkDesc(const DataDesc& desc, uint64_t raw_bytes) {
  DataDesc chunk_desc;
  chunk_desc.dtype = desc.dtype;
  chunk_desc.extent = {raw_bytes / DTypeSize(desc.dtype)};
  chunk_desc.precision_digits = desc.precision_digits;
  return chunk_desc;
}

}  // namespace

uint64_t ChunkedCompressor::Index::RawSizeOfChunk(size_t i) const {
  uint64_t begin = chunk_raw_bytes * i;
  return std::min<uint64_t>(chunk_raw_bytes, raw_bytes - begin);
}

std::string_view ChunkedCompressor::Index::MethodOfChunk(size_t i) const {
  if (version != kVersionMixed || i >= method_ids.size()) return {};
  return methods[method_ids[i]];
}

Result<std::unique_ptr<Compressor>> ChunkedCompressor::Wrap(
    std::string_view method, const CompressorConfig& config) {
  auto wrapped =
      std::make_unique<ChunkedCompressor>(std::string(method), config);
  if (!wrapped->init_status_.ok()) return wrapped->init_status_;
  return std::unique_ptr<Compressor>(std::move(wrapped));
}

std::unique_ptr<Compressor> ChunkedCompressor::Make(
    std::string method, const CompressorConfig& config) {
  return std::make_unique<ChunkedCompressor>(std::move(method), config);
}

ChunkedCompressor::ChunkedCompressor(CompressorTraits traits,
                                     const CompressorConfig& config)
    : traits_(std::move(traits)),
      inner_config_(config),
      chunk_bytes_(config.chunk_bytes ? config.chunk_bytes
                                      : kDefaultChunkBytes),
      threads_(ThreadPool::ResolveThreads(config.threads)) {
  // Inner methods always run single-threaded: outer chunks carry the
  // parallelism, and thread-count-sensitive inner formats (pFPC) must not
  // make the container depend on the thread budget.
  inner_config_.threads = 1;
  inner_config_.selection_trace = nullptr;
}

ChunkedCompressor::ChunkedCompressor(std::string method,
                                     const CompressorConfig& config)
    : ChunkedCompressor(CompressorTraits{}, config) {
  method_ = std::move(method);
  auto probe = CompressorRegistry::Global().Create(method_, inner_config_);
  if (!probe.ok()) {
    init_status_ = probe.status();
  } else {
    traits_ = probe.value()->traits();
    traits_.parallel = true;
  }
  traits_.name = "par-" + method_;
}

std::string ChunkedCompressor::ChooseMethod(size_t, ByteSpan,
                                            const DataDesc&) {
  return method_;
}

Status ChunkedCompressor::Compress(ByteSpan input, const DataDesc& desc,
                                   Buffer* out) {
  FCB_RETURN_IF_ERROR(init_status_);
  if (input.size() != desc.num_bytes()) {
    return Status::InvalidArgument("chunked: desc/input size mismatch");
  }
  const size_t esize = DTypeSize(desc.dtype);
  const size_t chunk_elems = std::max<size_t>(1, chunk_bytes_ / esize);
  const uint64_t chunk_raw = chunk_elems * esize;
  const uint64_t nchunks =
      input.empty() ? 0 : (input.size() + chunk_raw - 1) / chunk_raw;
  auto chunk_span = [&](uint64_t c) {
    const uint64_t begin = c * chunk_raw;
    return input.subspan(begin,
                         std::min<uint64_t>(chunk_raw, input.size() - begin));
  };

  obs::ScopedSpan span("chunked.compress", nchunks, input.size());
  // Every chunk's method, serially in chunk order (see ChooseMethod), as
  // a table in order of first use plus one id per chunk.
  std::vector<std::string> methods;
  std::vector<uint32_t> method_ids(nchunks);
  for (uint64_t c = 0; c < nchunks; ++c) {
    const ByteSpan raw = chunk_span(c);
    std::string method = ChooseMethod(c, raw, ChunkDesc(desc, raw.size()));
    uint32_t id = 0;
    while (id < methods.size() && methods[id] != method) ++id;
    if (id == methods.size()) methods.push_back(std::move(method));
    method_ids[c] = id;
  }

  std::vector<Buffer> parts(nchunks);
  std::vector<Status> stats(nchunks);
  ThreadPool::Shared().ParallelFor(
      nchunks,
      [&](size_t c) {
        const ByteSpan raw = chunk_span(c);
        // A fresh inner instance per chunk: Compressor instances are
        // single-call; sharing one across concurrent chunks would race.
        auto inner = CompressorRegistry::Global().Create(
            methods[method_ids[c]], inner_config_);
        if (!inner.ok()) {
          stats[c] = inner.status();
          return;
        }
        stats[c] = inner.value()->Compress(raw, ChunkDesc(desc, raw.size()),
                                           &parts[c]);
      },
      {/*grain=*/1, /*max_parallelism=*/static_cast<size_t>(threads_)});
  for (const auto& st : stats) FCB_RETURN_IF_ERROR(st);

  std::vector<uint64_t> payload_sizes(parts.size());
  uint64_t out_bytes = 0;
  for (size_t c = 0; c < parts.size(); ++c) {
    payload_sizes[c] = parts[c].size();
    out_bytes += parts[c].size();
  }
  if (!method_.empty()) {
    // One implicit method: version 1, no table.
    methods.clear();
    method_ids.clear();
  } else if (methods.empty()) {
    methods = {"bitshuffle_lz4"};  // an empty v2 table is malformed
  }
  FCB_RETURN_IF_ERROR(WriteDirectory(input.size(), chunk_raw, methods,
                                     method_ids, payload_sizes, out));
  for (const auto& p : parts) out->Append(p.span());
  auto& reg = obs::MetricsRegistry::Global();
  reg.GetCounter("chunked.compress.chunks")->Add(nchunks);
  reg.GetCounter("chunked.compress.raw_bytes")->Add(input.size());
  reg.GetCounter("chunked.compress.out_bytes")->Add(out_bytes);
  return Status::OK();
}

Result<ChunkedCompressor::Index> ChunkedCompressor::ReadIndex(
    ByteSpan input) {
  size_t off = 0;
  uint32_t magic = 0;
  Index idx;
  if (!GetFixed(input, &off, &magic) || magic != kMagic ||
      !GetVarint64(input, &off, &idx.version) ||
      (idx.version != kVersionSingle && idx.version != kVersionMixed)) {
    return Status::Corruption("chunked: bad magic/version");
  }
  if (!GetVarint64(input, &off, &idx.raw_bytes) ||
      !GetVarint64(input, &off, &idx.chunk_raw_bytes)) {
    return Status::Corruption("chunked: truncated header");
  }
  if (idx.version == kVersionMixed) {
    uint64_t nmethods = 0;
    if (!GetVarint64(input, &off, &nmethods) || nmethods == 0 ||
        nmethods > kMaxMethods) {
      return Status::Corruption("chunked: implausible method table");
    }
    idx.methods.reserve(nmethods);
    for (uint64_t m = 0; m < nmethods; ++m) {
      uint64_t len = 0;
      if (!GetVarint64(input, &off, &len) || len > kMaxMethodNameLen ||
          len > input.size() - off) {
        return Status::Corruption("chunked: truncated method table");
      }
      std::string name(reinterpret_cast<const char*>(input.data() + off),
                       len);
      off += len;
      if (!IsPlainMethodName(name)) {
        return Status::Corruption(
            "chunked: non-storable method name in table");
      }
      idx.methods.push_back(std::move(name));
    }
  }
  uint64_t nchunks = 0;
  if (!GetVarint64(input, &off, &nchunks)) {
    return Status::Corruption("chunked: truncated header");
  }
  // Structural plausibility before any allocation: the chunk count must
  // follow from the sizes, and each directory entry needs >= 1 byte.
  uint64_t expect_chunks =
      idx.raw_bytes == 0
          ? 0
          : (idx.chunk_raw_bytes == 0
                 ? ~uint64_t{0}
                 : (idx.raw_bytes + idx.chunk_raw_bytes - 1) /
                       idx.chunk_raw_bytes);
  if (nchunks != expect_chunks || nchunks > input.size() - off) {
    return Status::Corruption("chunked: implausible chunk directory");
  }
  if (idx.version == kVersionMixed) {
    idx.method_ids.resize(nchunks);
    for (auto& id : idx.method_ids) {
      uint64_t raw_id = 0;
      if (!GetVarint64(input, &off, &raw_id)) {
        return Status::Corruption("chunked: truncated method ids");
      }
      if (raw_id >= idx.methods.size()) {
        return Status::Corruption("chunked: chunk method id out of range");
      }
      id = static_cast<uint32_t>(raw_id);
    }
  }
  idx.payload_sizes.resize(nchunks);
  for (auto& s : idx.payload_sizes) {
    if (!GetVarint64(input, &off, &s)) {
      return Status::Corruption("chunked: truncated directory");
    }
  }
  uint64_t want_hash = 0;
  uint64_t got_hash = XxHash64(input.subspan(0, off));
  if (!GetFixed(input, &off, &want_hash) || want_hash != got_hash) {
    return Status::Corruption("chunked: directory checksum mismatch");
  }
  idx.payload_offsets.resize(nchunks);
  size_t pos = off;
  for (size_t c = 0; c < nchunks; ++c) {
    idx.payload_offsets[c] = pos;
    if (idx.payload_sizes[c] > input.size() - pos) {
      return Status::Corruption("chunked: truncated chunk payloads");
    }
    pos += idx.payload_sizes[c];
  }
  if (pos != input.size()) {
    return Status::Corruption("chunked: trailing bytes after payloads");
  }
  return idx;
}

Result<ChunkedCompressor::Index> ChunkedCompressor::OpenIndex(
    ByteSpan input, const DataDesc& desc) const {
  FCB_RETURN_IF_ERROR(init_status_);
  FCB_ASSIGN_OR_RETURN(Index idx, ReadIndex(input));
  if (idx.version == kVersionSingle && method_.empty()) {
    return Status::Corruption("chunked: container lacks a method table");
  }
  if (idx.raw_bytes != desc.num_bytes()) {
    return Status::Corruption("chunked: declared size disagrees with desc");
  }
  const size_t esize = DTypeSize(desc.dtype);
  if (idx.raw_bytes % esize != 0 || idx.chunk_raw_bytes % esize != 0) {
    return Status::Corruption("chunked: sizes not element-aligned");
  }
  return idx;
}

Status ChunkedCompressor::DecodeOne(const Index& idx, ByteSpan input,
                                    const DataDesc& desc, size_t chunk,
                                    Buffer* out) const {
  const uint64_t raw = idx.RawSizeOfChunk(chunk);
  std::string_view method = idx.MethodOfChunk(chunk);
  if (method.empty()) method = method_;
  auto inner = CompressorRegistry::Global().Create(method, inner_config_);
  if (!inner.ok()) return inner.status();
  size_t before = out->size();
  FCB_RETURN_IF_ERROR(inner.value()->Decompress(
      input.subspan(idx.payload_offsets[chunk], idx.payload_sizes[chunk]),
      ChunkDesc(desc, raw), out));
  if (out->size() - before != raw) {
    return Status::Corruption("chunked: chunk size mismatch after decode");
  }
  return Status::OK();
}

Status ChunkedCompressor::Decompress(ByteSpan input, const DataDesc& desc,
                                     Buffer* out) {
  FCB_ASSIGN_OR_RETURN(Index idx, OpenIndex(input, desc));
  const size_t nchunks = idx.num_chunks();
  const size_t base = out->size();
  out->Resize(base + idx.raw_bytes);
  std::vector<Status> stats(nchunks);
  ThreadPool::Shared().ParallelFor(
      nchunks,
      [&](size_t c) {
        Buffer part;
        Status st = DecodeOne(idx, input, desc, c, &part);
        if (!st.ok()) {
          stats[c] = st;
          return;
        }
        std::memcpy(out->data() + base + c * idx.chunk_raw_bytes,
                    part.data(), part.size());
      },
      {/*grain=*/1, /*max_parallelism=*/static_cast<size_t>(threads_)});
  for (const auto& st : stats) FCB_RETURN_IF_ERROR(st);
  auto& reg = obs::MetricsRegistry::Global();
  reg.GetCounter("chunked.decompress.chunks")->Add(nchunks);
  reg.GetCounter("chunked.decompress.raw_bytes")->Add(idx.raw_bytes);
  return Status::OK();
}

Status ChunkedCompressor::DecompressChunk(ByteSpan input,
                                          const DataDesc& desc, size_t index,
                                          Buffer* out) {
  FCB_ASSIGN_OR_RETURN(Index idx, OpenIndex(input, desc));
  if (index >= idx.num_chunks()) {
    return Status::InvalidArgument("chunked: chunk index out of range");
  }
  return DecodeOne(idx, input, desc, index, out);
}

}  // namespace fcbench

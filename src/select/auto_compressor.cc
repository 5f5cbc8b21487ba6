#include "select/auto_compressor.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "util/thread_pool.h"
#include "util/timer.h"

namespace fcbench::select {

std::string_view AutoMethodName(Objective objective) {
  switch (objective) {
    case Objective::kStorageReduction:
      return "auto-ratio";
    case Objective::kSpeed:
      return "auto-speed";
    case Objective::kBalanced:
      return "auto";
  }
  return "auto";
}

bool ParseAutoMethod(std::string_view method, Objective* objective) {
  Objective parsed;
  if (method == "auto") {
    parsed = Objective::kBalanced;
  } else if (method == "auto-speed") {
    parsed = Objective::kSpeed;
  } else if (method == "auto-ratio") {
    parsed = Objective::kStorageReduction;
  } else {
    return false;
  }
  if (objective != nullptr) *objective = parsed;
  return true;
}

std::unique_ptr<Compressor> AutoCompressor::Make(
    Objective objective, const CompressorConfig& config) {
  return std::make_unique<AutoCompressor>(objective, config);
}

AutoCompressor::AutoCompressor(Objective objective,
                               const CompressorConfig& config)
    : objective_(objective),
      selector_([&] {
        Selector::Config sc;
        sc.objective = objective;
        return sc;
      }()),
      inner_config_(config),
      trace_(config.selection_trace),
      chunk_bytes_(config.chunk_bytes
                       ? config.chunk_bytes
                       : ChunkedCompressor::kDefaultChunkBytes),
      threads_(ThreadPool::ResolveThreads(config.threads)) {
  // Inner methods run single-threaded for the same reason as in the
  // par-* adapter: chunks carry the parallelism and the bytes must not
  // depend on the thread budget.
  inner_config_.threads = 1;
  inner_config_.selection_trace = nullptr;
  traits_.name = std::string(AutoMethodName(objective));
  traits_.year = 2024;
  traits_.domain = "adaptive";
  traits_.arch = Arch::kCpu;
  traits_.predictor = PredictorClass::kPrediction;  // predicts the winner
  traits_.parallel = true;
  traits_.supports_f32 = true;
  traits_.supports_f64 = true;
}

Status AutoCompressor::Compress(ByteSpan input, const DataDesc& desc,
                                Buffer* out) {
  if (input.size() != desc.num_bytes()) {
    return Status::InvalidArgument("auto: desc/input size mismatch");
  }
  const size_t esize = DTypeSize(desc.dtype);
  const size_t chunk_elems = std::max<size_t>(1, chunk_bytes_ / esize);
  const uint64_t chunk_raw = chunk_elems * esize;
  const uint64_t nchunks =
      input.empty() ? 0 : (input.size() + chunk_raw - 1) / chunk_raw;

  auto chunk_desc_of = [&](uint64_t len) {
    DataDesc d;
    d.dtype = desc.dtype;
    d.extent = {len / esize};
    d.precision_digits = desc.precision_digits;
    return d;
  };

  // Phase 1 — selection, strictly serial in chunk order: the decision
  // cache is shared state, and filling it in a deterministic order is
  // what keeps the container bytes thread-count-invariant.
  std::vector<std::string> methods;
  std::vector<uint32_t> method_ids(nchunks);
  for (uint64_t c = 0; c < nchunks; ++c) {
    const uint64_t begin = c * chunk_raw;
    const uint64_t len = std::min<uint64_t>(chunk_raw, input.size() - begin);
    Timer timer;
    Decision d =
        selector_.Choose(input.subspan(begin, len), chunk_desc_of(len));
    const double select_seconds = timer.ElapsedSeconds();
    uint32_t id = 0;
    while (id < methods.size() && methods[id] != d.method) ++id;
    if (id == methods.size()) methods.push_back(d.method);
    method_ids[c] = id;
    if (trace_ != nullptr) {
      SelectionTrace::Entry e;
      e.chunk_index = c;
      e.raw_bytes = len;
      e.decision = std::move(d);
      e.select_seconds = select_seconds;
      trace_->entries.push_back(std::move(e));
    }
  }

  // Phase 2 — compression, chunk-parallel on the shared pool.
  std::vector<Buffer> parts(nchunks);
  std::vector<Status> stats(nchunks);
  ThreadPool::Shared().ParallelFor(
      nchunks,
      [&](size_t c) {
        const uint64_t begin = c * chunk_raw;
        const uint64_t len =
            std::min<uint64_t>(chunk_raw, input.size() - begin);
        auto inner = CompressorRegistry::Global().Create(
            methods[method_ids[c]], inner_config_);
        if (!inner.ok()) {
          stats[c] = inner.status();
          return;
        }
        stats[c] = inner.value()->Compress(input.subspan(begin, len),
                                           chunk_desc_of(len), &parts[c]);
      },
      {/*grain=*/1, /*max_parallelism=*/static_cast<size_t>(threads_)});
  for (const auto& st : stats) FCB_RETURN_IF_ERROR(st);

  std::vector<uint64_t> payload_sizes(nchunks);
  for (size_t c = 0; c < nchunks; ++c) payload_sizes[c] = parts[c].size();
  if (nchunks == 0) {
    // An empty container still needs a non-empty method table (the v2
    // format requires one); record the fallback candidate.
    methods = {"bitshuffle_lz4"};
  }
  FCB_RETURN_IF_ERROR(ChunkedCompressor::WriteDirectory(
      input.size(), chunk_raw, methods, method_ids, payload_sizes, out));
  for (const auto& p : parts) out->Append(p.span());
  return Status::OK();
}

Status AutoCompressor::ValidateContainer(const ChunkedCompressor::Index& idx,
                                         const DataDesc& desc) const {
  if (idx.version != ChunkedCompressor::kVersionMixed) {
    return Status::Corruption("auto: container lacks a method table");
  }
  if (idx.raw_bytes != desc.num_bytes()) {
    return Status::Corruption("auto: declared size disagrees with desc");
  }
  const size_t esize = DTypeSize(desc.dtype);
  if (idx.raw_bytes % esize != 0 || idx.chunk_raw_bytes % esize != 0) {
    return Status::Corruption("auto: sizes not element-aligned");
  }
  return Status::OK();
}

Status AutoCompressor::Decompress(ByteSpan input, const DataDesc& desc,
                                  Buffer* out) {
  FCB_ASSIGN_OR_RETURN(ChunkedCompressor::Index idx,
                       ChunkedCompressor::ReadIndex(input));
  FCB_RETURN_IF_ERROR(ValidateContainer(idx, desc));

  const size_t nchunks = idx.num_chunks();
  const size_t base = out->size();
  out->Resize(base + idx.raw_bytes);
  std::vector<Status> stats(nchunks);
  ThreadPool::Shared().ParallelFor(
      nchunks,
      [&](size_t c) {
        Buffer part;
        Status st = ChunkedCompressor::DecodeChunkWithIndex(
            idx, input, desc, c, {}, inner_config_, &part);
        if (!st.ok()) {
          stats[c] = st;
          return;
        }
        std::memcpy(out->data() + base + c * idx.chunk_raw_bytes,
                    part.data(), part.size());
      },
      {/*grain=*/1, /*max_parallelism=*/static_cast<size_t>(threads_)});
  for (const auto& st : stats) FCB_RETURN_IF_ERROR(st);
  return Status::OK();
}

Status AutoCompressor::DecompressChunk(ByteSpan input, const DataDesc& desc,
                                       size_t index, Buffer* out) {
  FCB_ASSIGN_OR_RETURN(ChunkedCompressor::Index idx,
                       ChunkedCompressor::ReadIndex(input));
  FCB_RETURN_IF_ERROR(ValidateContainer(idx, desc));
  if (index >= idx.num_chunks()) {
    return Status::InvalidArgument("auto: chunk index out of range");
  }
  return ChunkedCompressor::DecodeChunkWithIndex(idx, input, desc, index, {},
                                                 inner_config_, out);
}

}  // namespace fcbench::select

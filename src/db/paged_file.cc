#include "db/paged_file.h"

#include <memory>
#include <utility>
#include <vector>

#include "util/bitio.h"
#include "util/fs.h"
#include "util/hash.h"
#include "util/timer.h"

namespace fcbench::db {

namespace {

constexpr uint32_t kMagic = 0x46434246;  // "FCBF"
/// Parse-time plausibility bounds: a corrupt header must surface as a
/// Corruption status, never as a giant allocation or an overflowing
/// bounds check.
constexpr uint64_t kMaxCompressorNameLen = 256;
constexpr uint64_t kMaxPageBytes = 1ull << 31;
constexpr uint64_t kMaxTotalBytes = 1ull << 46;

/// Per-page descriptor: pages are independent 1-D arrays (column-store
/// view), so dimension-hungry methods fall back to their 1-D mode exactly
/// as §6.1.5 describes for column stores.
DataDesc PageDesc(const DataDesc& file_desc, size_t page_bytes) {
  DataDesc d;
  d.dtype = file_desc.dtype;
  d.extent = {page_bytes / DTypeSize(file_desc.dtype)};
  d.precision_digits = file_desc.precision_digits;
  return d;
}

void AppendHeaderVarint(Buffer* header, uint64_t v) {
  PutVarint64(header, v);
}

}  // namespace

Status PagedFile::Write(const std::string& path, ByteSpan data,
                        const DataDesc& desc, const Options& options,
                        WriteInfo* info) {
  const bool raw = options.compressor == "none";
  std::unique_ptr<Compressor> comp;
  if (!raw) {
    auto r = CompressorRegistry::Global().Create(options.compressor);
    if (!r.ok()) return r.status();
    comp = std::move(r).TakeValue();
  }

  if (data.size() != desc.num_bytes()) {
    return Status::InvalidArgument(
        "paged file: data size does not match descriptor");
  }
  const size_t esize = DTypeSize(desc.dtype);
  size_t page = options.page_size / esize * esize;
  if (page == 0) page = esize;
  if (page > kMaxPageBytes) {
    return Status::InvalidArgument("paged file: page size too large");
  }
  size_t npages = (data.size() + page - 1) / page;
  if (data.empty()) npages = 0;

  // Header: magic, compressor name, page size, desc, page directory.
  Buffer header;
  PutFixed(&header, kMagic);
  AppendHeaderVarint(&header, options.compressor.size());
  header.Append(options.compressor.data(), options.compressor.size());
  AppendHeaderVarint(&header, page);
  header.PushBack(desc.dtype == DType::kFloat64 ? 1 : 0);
  header.PushBack(static_cast<uint8_t>(desc.precision_digits));
  AppendHeaderVarint(&header, desc.extent.size());
  for (uint64_t e : desc.extent) AppendHeaderVarint(&header, e);
  AppendHeaderVarint(&header, npages);

  std::vector<Buffer> pages(npages);
  for (size_t p = 0; p < npages; ++p) {
    size_t begin = p * page;
    size_t len = std::min(page, data.size() - begin);
    ByteSpan chunk = data.subspan(begin, len);
    if (raw) {
      pages[p].Append(chunk);
    } else {
      FCB_RETURN_IF_ERROR(
          comp->Compress(chunk, PageDesc(desc, len), &pages[p]));
    }
  }
  for (const auto& pg : pages) AppendHeaderVarint(&header, pg.size());

  // Assemble the whole container and publish it atomically (temp file +
  // rename + dir fsync): a crash mid-write can leave a stale .tmp behind
  // but never a torn container under `path` — which is what lets a
  // manifest written *after* its column files reference them safely.
  Buffer out;
  out.Reserve(header.size());
  out.Append(header.span());
  for (const auto& pg : pages) out.Append(pg.span());
  if (info != nullptr) {
    info->file_hash = XxHash64(out.span());
    info->file_bytes = out.size();
  }
  return fs::WriteFileAtomic(path, out.span());
}

namespace {

struct ParsedHeader {
  std::string compressor;
  size_t page = 0;
  DataDesc desc;
  std::vector<uint64_t> page_sizes;
  size_t payload_offset = 0;
};

/// Parses and *fully validates* the header. Every length read from the
/// file is compared overflow-safely (`len > size - off` with off <= size,
/// never `off + len > size`, which wraps for hostile 64-bit lengths) and
/// bounded by a plausibility cap, and the page directory is checked for
/// internal consistency — page count vs. extent, directory sum vs. file
/// size — so the page decoder cannot be steered out of bounds.
Result<ParsedHeader> ParseHeader(ByteSpan file) {
  ParsedHeader h;
  size_t off = 0;
  uint32_t magic = 0;
  if (!GetFixed(file, &off, &magic) || magic != kMagic) {
    return Status::Corruption("paged file: bad magic");
  }
  uint64_t name_len = 0;
  if (!GetVarint64(file, &off, &name_len) ||
      name_len > kMaxCompressorNameLen || name_len > file.size() - off) {
    return Status::Corruption("paged file: bad compressor name");
  }
  h.compressor.assign(reinterpret_cast<const char*>(file.data() + off),
                      name_len);
  off += name_len;
  uint64_t page = 0;
  if (!GetVarint64(file, &off, &page) || page == 0 || page > kMaxPageBytes) {
    return Status::Corruption("paged file: bad page size");
  }
  h.page = page;
  uint8_t dtype = 0, digits = 0;
  if (!GetFixed(file, &off, &dtype) || !GetFixed(file, &off, &digits)) {
    return Status::Corruption("paged file: bad dtype");
  }
  h.desc.dtype = dtype ? DType::kFloat64 : DType::kFloat32;
  h.desc.precision_digits = digits;
  if (page % DTypeSize(h.desc.dtype) != 0) {
    return Status::Corruption("paged file: page size is not whole elements");
  }
  uint64_t rank = 0;
  if (!GetVarint64(file, &off, &rank) || rank > 8) {
    return Status::Corruption("paged file: bad rank");
  }
  h.desc.extent.resize(rank);
  uint64_t total_elems = rank == 0 ? 0 : 1;
  for (auto& e : h.desc.extent) {
    if (!GetVarint64(file, &off, &e) ||
        __builtin_mul_overflow(total_elems, e, &total_elems)) {
      return Status::Corruption("paged file: bad extent");
    }
  }
  uint64_t total_bytes = 0;
  if (__builtin_mul_overflow(total_elems,
                             uint64_t{DTypeSize(h.desc.dtype)},
                             &total_bytes) ||
      total_bytes > kMaxTotalBytes) {
    return Status::Corruption("paged file: implausible array size");
  }
  uint64_t npages = 0;
  if (!GetVarint64(file, &off, &npages) ||
      npages != (total_bytes + page - 1) / page) {
    return Status::Corruption("paged file: page count mismatch");
  }
  h.page_sizes.resize(npages);
  uint64_t dir_sum = 0;
  for (auto& s : h.page_sizes) {
    if (!GetVarint64(file, &off, &s) ||
        __builtin_add_overflow(dir_sum, s, &dir_sum)) {
      return Status::Corruption("paged file: bad page directory");
    }
  }
  h.payload_offset = off;
  if (dir_sum > file.size() - off) {
    return Status::Corruption("paged file: truncated pages");
  }
  return h;
}

}  // namespace

namespace {

/// The calling thread's instance of page codec `name`, created on first
/// use. Concurrent page decodes of one file each use their own thread's
/// instance, so a codec's Decompress need not be reentrant.
Result<Compressor*> ThreadCodec(const std::string& name) {
  thread_local std::vector<std::pair<std::string, std::unique_ptr<Compressor>>>
      codecs;
  for (auto& [n, c] : codecs) {
    if (n == name) return c.get();
  }
  FCB_ASSIGN_OR_RETURN(std::unique_ptr<Compressor> c,
                       CompressorRegistry::Global().Create(name));
  codecs.emplace_back(name, std::move(c));
  return codecs.back().second.get();
}

}  // namespace

Result<PagedFile::Pages> PagedFile::Pages::Open(const std::string& path,
                                                ReadTiming* timing) {
  Timer io_timer;
  Pages f;
  FCB_ASSIGN_OR_RETURN(f.file_, fs::MapReadOnly(path));
  if (timing != nullptr) timing->io_seconds = io_timer.ElapsedSeconds();

  FCB_ASSIGN_OR_RETURN(ParsedHeader h, ParseHeader(f.file_.span()));
  if (h.compressor != "none") {
    FCB_RETURN_IF_ERROR(ThreadCodec(h.compressor).status());
  }
  f.compressor_ = std::move(h.compressor);
  f.page_ = h.page;
  f.desc_ = std::move(h.desc);
  // ParseHeader bounded the directory's sum by the file size.
  f.page_offsets_.assign(1, h.payload_offset);
  for (uint64_t s : h.page_sizes) {
    f.page_offsets_.push_back(f.page_offsets_.back() + s);
  }
  return f;
}

Status PagedFile::Pages::DecodePage(size_t p, Buffer* out) const {
  const ByteSpan stored = file_.span().subspan(
      page_offsets_[p], page_offsets_[p + 1] - page_offsets_[p]);
  const uint64_t logical = page_raw_bytes(p);
  if (compressor_ == "none") {
    if (stored.size() != logical) {
      return Status::Corruption("paged file: page size mismatch");
    }
    out->Append(stored);
    return Status::OK();
  }
  FCB_ASSIGN_OR_RETURN(Compressor * comp, ThreadCodec(compressor_));
  const size_t before = out->size();
  FCB_RETURN_IF_ERROR(
      comp->Decompress(stored, PageDesc(desc_, logical), out));
  if (out->size() - before != logical) {
    return Status::Corruption("paged file: page size mismatch");
  }
  return Status::OK();
}

Result<Buffer> PagedFile::Read(const std::string& path, ReadTiming* timing,
                               DataDesc* desc) {
  FCB_ASSIGN_OR_RETURN(Pages file, Pages::Open(path, timing));
  if (desc != nullptr) *desc = file.desc();

  Timer decode_timer;
  Buffer out;
  out.Reserve(file.desc().num_bytes());
  for (size_t p = 0; p < file.num_pages(); ++p) {
    FCB_RETURN_IF_ERROR(file.DecodePage(p, &out));
  }
  if (timing != nullptr) {
    timing->decode_seconds = decode_timer.ElapsedSeconds();
    timing->decoded_bytes = out.size();
  }
  return out;
}

}  // namespace fcbench::db

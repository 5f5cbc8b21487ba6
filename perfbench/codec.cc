// codec-corpus: every lossless CPU method plus `auto` over the generated
// corpus from two client threads, each compressor single-threaded, with a
// round-trip check per call; and the standalone compressors/select replay
// of the traced run.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <set>
#include <thread>

#include "bench.h"
#include "core/chunked.h"
#include "core/compressor.h"
#include "select/features.h"
#include "select/selector.h"
#include "stats.h"

namespace perfbench {

namespace {

bool RunsOn(const std::string& method, const fcbench::DataDesc& desc) {
  // BUFF is lossless only within a declared decimal precision.
  return method != "buff" || desc.precision_digits > 0;
}

std::unique_ptr<fcbench::Compressor> Create(const std::string& method) {
  fcbench::CompressorConfig config;
  config.threads = 1;
  auto c = fcbench::CompressorRegistry::Global().Create(method, config);
  return c.ok() ? std::move(c).value() : nullptr;
}

/// Bit-exact for every method but BUFF, which is checked against its own
/// contract: each value within half a unit of the declared last decimal
/// digit. (BUFF decodes -0.0 as +0.0, so it is not bit-exact even then.)
bool RoundTripOk(const std::string& method, fcbench::ByteSpan original,
                 const fcbench::Buffer& decoded,
                 const fcbench::DataDesc& desc) {
  if (decoded.size() != original.size()) return false;
  if (method != "buff") {
    return decoded.size() == 0 ||
           std::memcmp(decoded.data(), original.data(), decoded.size()) == 0;
  }
  const double tolerance = 0.5 * std::pow(10.0, -desc.precision_digits);
  const size_t esize = fcbench::DTypeSize(desc.dtype);
  for (size_t off = 0; off < original.size(); off += esize) {
    double a = 0, b = 0;
    if (esize == 4) {
      float fa = 0, fb = 0;
      std::memcpy(&fa, original.data() + off, 4);
      std::memcpy(&fb, decoded.data() + off, 4);
      a = fa;
      b = fb;
    } else {
      std::memcpy(&a, original.data() + off, 8);
      std::memcpy(&b, decoded.data() + off, 8);
    }
    if (!(std::fabs(a - b) <= tolerance)) return false;
  }
  return true;
}

/// Span names must outlive the tracer; these live for the process.
/// A std::set node never moves, so the pointer stays valid.
const char* SpanName(const std::string& name) {
  static auto* names = new std::set<std::string>();
  return names->insert(name).first->c_str();
}

}  // namespace

const std::vector<std::string>& CodecMethods() {
  // The lossless CPU methods, BUFF (decimal inputs only) and the online
  // selector. GPU-simulated methods and dzip_nn report modelled time,
  // not wall time, and are left out.
  static const auto* methods = new std::vector<std::string>{
      "pfpc",      "spdp",    "fpzip",    "bitshuffle_lz4", "bitshuffle_zstd",
      "ndzip_cpu", "gorilla", "chimp128", "buff",           "auto"};
  return *methods;
}

CycleResult RunCodecCycle(const Config& cfg, Tracer* tracer, Outcome* out) {
  CycleResult r;
  const uint64_t setup_start = NowNanos();
  const std::vector<CodecInput> corpus = MakeCorpus(cfg.seed);
  r.setup_s = (NowNanos() - setup_start) / 1e9;

  std::vector<std::pair<const CodecInput*, const std::string*>> calls;
  for (const CodecInput& in : corpus) {
    for (const std::string& method : CodecMethods()) {
      if (RunsOn(method, in.desc)) calls.emplace_back(&in, &method);
    }
  }
  // Closed loop: client t runs calls t, t + kLoadThreads, ... one after
  // the other. Two clients spread the calls over two cores, so one slow
  // core of a shared host moves the medians less. The write and read
  // times are the summed call times: per-call speed, as the paper's CT
  // and DT.
  std::vector<CycleResult> part(kLoadThreads);
  std::vector<std::thread> clients;
  for (size_t t = 0; t < kLoadThreads; ++t) {
    clients.emplace_back([&, t] {
      CycleResult& p = part[t];
      for (size_t i = t; i < calls.size(); i += kLoadThreads) {
        const CodecInput& in = *calls[i].first;
        const std::string& method = *calls[i].second;
        auto c = Create(method);
        if (c == nullptr) {
          out->Op(false, "create " + method);
          continue;
        }
        fcbench::Buffer packed, back;
        Span compress(tracer, "codec.compress");
        const fcbench::Status cs =
            c->Compress(in.bytes.span(), in.desc, &packed);
        const uint64_t compress_ns = compress.Stop();
        out->Op(cs.ok(), method + " compress " + in.name + ": " + cs.ToString());
        if (!cs.ok()) continue;
        Span decompress(tracer, "codec.decompress");
        const fcbench::Status ds =
            c->Decompress(packed.span(), in.desc, &back);
        const uint64_t decompress_ns = decompress.Stop();
        out->Op(ds.ok() && RoundTripOk(method, in.bytes.span(), back, in.desc),
                method + " round trip " + in.name + ": " + ds.ToString());

        p.write_us.push_back(compress_ns / 1e3);
        p.read_ms.push_back(decompress_ns / 1e6);
        p.write_s += compress_ns / 1e9;
        p.read_s += decompress_ns / 1e9;
        p.user_bytes += in.bytes.size();
        p.stored_bytes += packed.size();
      }
    });
  }
  for (auto& c : clients) c.join();
  for (const CycleResult& p : part) {
    r.write_us.insert(r.write_us.end(), p.write_us.begin(), p.write_us.end());
    r.read_ms.insert(r.read_ms.end(), p.read_ms.begin(), p.read_ms.end());
    r.write_s += p.write_s;
    r.read_s += p.read_s;
    r.user_bytes += p.user_bytes;
    r.stored_bytes += p.stored_bytes;
  }
  r.write_bytes = r.read_bytes = r.user_bytes;
  return r;
}

void ReplayCodecLayers(const std::vector<CodecInput>& inputs, Tracer* tracer,
                       Outcome* out, LayerReport* report) {
  for (const std::string& method : CodecMethods()) {
    if (method == "auto") continue;  // replayed chunk by chunk below
    double raw = 0, packed_bytes = 0, c_ns = 0, d_ns = 0;
    const char* c_name = SpanName("compressors." + method + ".compress");
    const char* d_name = SpanName("compressors." + method + ".decompress");
    for (const CodecInput& in : inputs) {
      if (!RunsOn(method, in.desc)) continue;
      auto c = Create(method);
      fcbench::Buffer packed, back;
      Span cs_span(tracer, c_name);
      const fcbench::Status cs =
          c == nullptr ? fcbench::Status::Internal("create")
                       : c->Compress(in.bytes.span(), in.desc, &packed);
      c_ns += cs_span.Stop();
      if (!cs.ok()) {
        out->Op(false, "replay " + method + " compress " + in.name);
        continue;
      }
      Span ds_span(tracer, d_name);
      const fcbench::Status ds = c->Decompress(packed.span(), in.desc, &back);
      d_ns += ds_span.Stop();
      out->Op(ds.ok() && RoundTripOk(method, in.bytes.span(), back, in.desc),
              "replay " + method + " round trip " + in.name);
      raw += in.bytes.size();
      packed_bytes += packed.size();
    }
    report->layer_ns += c_ns + d_ns;
    const std::string p = "compressors." + method;
    report->metrics.push_back({p + ".compress_mbps", raw / (c_ns / 1e3), "MB/s"});
    report->metrics.push_back({p + ".decompress_mbps", raw / (d_ns / 1e3), "MB/s"});
    report->metrics.push_back({p + ".cr", raw / packed_bytes, "ratio"});
  }

  // `auto` as its layers see it: per 256 KiB chunk, feature extraction
  // and the selector's choice, then the chosen method on the chunk.
  std::vector<double> features_us, choose_us;
  double raw = 0, packed_bytes = 0, c_ns = 0, d_ns = 0;
  uint64_t hits = 0, lookups = 0;
  for (const CodecInput& in : inputs) {
    fcbench::select::Selector selector(fcbench::select::Selector::Config{});
    const size_t esize = fcbench::DTypeSize(in.desc.dtype);
    const size_t chunk =
        fcbench::ChunkedCompressor::kDefaultChunkBytes / esize * esize;
    for (size_t begin = 0; begin < in.bytes.size(); begin += chunk) {
      const size_t len = std::min(chunk, in.bytes.size() - begin);
      const fcbench::ByteSpan bytes = in.bytes.span().subspan(begin, len);
      fcbench::DataDesc desc = in.desc;
      desc.extent = {len / esize};

      Span f_span(tracer, "select.features");
      const auto features = fcbench::select::ExtractChunkFeatures(
          bytes.subspan(0, std::min<size_t>(len, 4 << 10)), desc.dtype);
      features_us.push_back(f_span.Stop() / 1e3);
      (void)features;

      Span ch_span(tracer, "select.choose");
      const fcbench::select::Decision d = selector.Choose(bytes, desc);
      const uint64_t choose_ns = ch_span.Stop();
      choose_us.push_back(choose_ns / 1e3);
      ++lookups;
      hits += d.cache_hit ? 1 : 0;

      auto c = Create(d.method);
      fcbench::Buffer packed, back;
      Span cs_span(tracer, "select.chunk_compress");
      const fcbench::Status cs =
          c == nullptr ? fcbench::Status::Internal("create " + d.method)
                       : c->Compress(bytes, desc, &packed);
      c_ns += choose_ns + cs_span.Stop();
      if (!cs.ok()) {
        out->Op(false, "replay auto chunk " + d.method + " " + in.name);
        continue;
      }
      Span ds_span(tracer, "select.chunk_decompress");
      const fcbench::Status ds = c->Decompress(packed.span(), desc, &back);
      d_ns += ds_span.Stop();
      out->Op(ds.ok() && RoundTripOk(d.method, bytes, back, desc),
              "replay auto chunk round trip " + in.name);
      raw += len;
      packed_bytes += packed.size();
    }
  }
  report->layer_ns += c_ns + d_ns;
  report->metrics.push_back({"compressors.auto.compress_mbps", raw / (c_ns / 1e3), "MB/s"});
  report->metrics.push_back({"compressors.auto.decompress_mbps", raw / (d_ns / 1e3), "MB/s"});
  report->metrics.push_back({"compressors.auto.cr", raw / packed_bytes, "ratio"});

  const Summary fs = Summarize(features_us), cs = Summarize(choose_us);
  report->metrics.push_back({"select.features_us", fs.p50, "us"});
  report->metrics.push_back({"select.choose_us", cs.p50, "us"});
  report->metrics.push_back(
      {"select.cache_hit_ratio",
       lookups == 0 ? 0.0 : static_cast<double>(hits) / lookups, "ratio"});
  report->details.push_back({"select.features_us", fs.ToString()});
  report->details.push_back({"select.choose_us", cs.ToString()});
}

}  // namespace perfbench

// fcbench — command-line driver for the library. The tool a downstream
// user reaches for first:
//
//   fcbench_cli list
//   fcbench_cli compress   <method> <in.raw> <out.fcz> --dtype=f32 [--dims=AxBxC]
//   fcbench_cli compress   --method=auto --explain <in.raw> <out.fcz> --dtype=f64
//   fcbench_cli decompress <in.fcz> <out.raw>
//   fcbench_cli bench      <method> <in.raw> --dtype=f64 [--repeats=N]
//   fcbench_cli gen        <dataset> <out.raw> [--bytes=N]
//   fcbench_cli ingest     <dir> [--shards=N] [--series=N] [--rows=N]
//                          [--quota-bytes=N] [--fsync] [--scrub]
//                          [--stats-every=N] [--trace-out=FILE]
//   fcbench_cli stats      [--format=text|json|prom] [--trace]
//                          [--exercise]
//   fcbench_cli trace      [--out=FILE] [--series=N] [--rows=N]
//                          [--sample=N] [--seed=N]
//
// The method can be given positionally or as --method=<name>; the auto
// selectors (auto, auto-speed, auto-ratio) pick a concrete method per
// chunk from the data, and --explain prints each chunk's features,
// probe scores and winner (the selection trace).
//
// The .fcz container (core/container.h) stores method name + DataDesc +
// xxHash64 checksums, so decompression is self-describing and any file
// corruption is detected end to end.

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/compressor.h"
#include "core/container.h"
#include "core/runner.h"
#include "data/dataset.h"
#include "db/lsm/lsm_engine.h"
#include "db/shard/sharded_engine.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "select/selector.h"
#include "util/bitio.h"
#include "util/fs.h"
#include "util/timer.h"

using namespace fcbench;

namespace {

Result<Buffer> ReadFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::IoError("cannot open " + path);
  std::fseek(f, 0, SEEK_END);
  long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  Buffer buf(static_cast<size_t>(size));
  size_t got = std::fread(buf.data(), 1, buf.size(), f);
  std::fclose(f);
  if (got != buf.size()) return Status::IoError("short read " + path);
  return buf;
}

Status WriteFile(const std::string& path, ByteSpan data) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return Status::IoError("cannot open " + path);
  size_t put = std::fwrite(data.data(), 1, data.size(), f);
  std::fclose(f);
  if (put != data.size()) return Status::IoError("short write " + path);
  return Status::OK();
}

std::string FlagValue(int argc, char** argv, const std::string& name,
                      const std::string& fallback) {
  std::string prefix = "--" + name + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return std::string(argv[i] + prefix.size());
    }
  }
  return fallback;
}

bool HasFlag(int argc, char** argv, const std::string& name) {
  std::string flag = "--" + name;
  for (int i = 1; i < argc; ++i) {
    if (flag == argv[i]) return true;
  }
  return false;
}

/// Arguments that are not --flags, in order (argv[1] — the command — is
/// element 0). Lets the method be given positionally or via --method=.
std::vector<std::string> Positionals(int argc, char** argv) {
  std::vector<std::string> pos;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--", 2) != 0) pos.emplace_back(argv[i]);
  }
  return pos;
}

Result<DataDesc> ParseDesc(int argc, char** argv, size_t raw_bytes) {
  DataDesc desc;
  std::string dtype = FlagValue(argc, argv, "dtype", "f64");
  if (dtype == "f32") {
    desc.dtype = DType::kFloat32;
  } else if (dtype == "f64") {
    desc.dtype = DType::kFloat64;
  } else {
    return Status::InvalidArgument("--dtype must be f32 or f64");
  }
  std::string dims = FlagValue(argc, argv, "dims", "");
  if (dims.empty()) {
    desc.extent = {raw_bytes / DTypeSize(desc.dtype)};
  } else {
    size_t pos = 0;
    while (pos < dims.size()) {
      size_t next = dims.find('x', pos);
      if (next == std::string::npos) next = dims.size();
      desc.extent.push_back(std::stoull(dims.substr(pos, next - pos)));
      pos = next + 1;
    }
  }
  desc.precision_digits =
      std::atoi(FlagValue(argc, argv, "precision", "0").c_str());
  if (desc.num_bytes() != raw_bytes) {
    return Status::InvalidArgument("--dims does not match file size");
  }
  return desc;
}

int CmdList() {
  std::printf("%-18s %-6s %-10s %-12s %s\n", "name", "year", "arch",
              "predictor", "domain");
  for (const auto& name : CompressorRegistry::Global().Names()) {
    auto c = CompressorRegistry::Global().Create(name).TakeValue();
    const auto& t = c->traits();
    std::printf("%-18s %-6d %-10s %-12s %s\n", t.name.c_str(), t.year,
                t.arch == Arch::kCpu ? "CPU" : "GPU(sim)",
                std::string(PredictorClassName(t.predictor)).c_str(),
                t.domain.c_str());
  }
  return 0;
}

int CmdCompress(int argc, char** argv) {
  std::string method = FlagValue(argc, argv, "method", "");
  auto pos = Positionals(argc, argv);
  size_t next = 1;
  if (method.empty() && pos.size() > next) method = pos[next++];
  if (method.empty() || pos.size() < next + 2) {
    std::fprintf(stderr,
                 "usage: fcbench_cli compress <method> <in> <out> "
                 "--dtype=f32|f64 [--dims=AxB] [--precision=N]\n"
                 "       fcbench_cli compress --method=auto [--explain] "
                 "<in> <out> --dtype=f32|f64\n");
    return 2;
  }
  const std::string in_path = pos[next];
  const std::string out_path = pos[next + 1];
  auto raw = ReadFile(in_path);
  if (!raw.ok()) {
    std::fprintf(stderr, "%s\n", raw.status().ToString().c_str());
    return 1;
  }
  auto desc = ParseDesc(argc, argv, raw.value().size());
  if (!desc.ok()) {
    std::fprintf(stderr, "%s\n", desc.status().ToString().c_str());
    return 1;
  }
  const bool explain = HasFlag(argc, argv, "explain");
  select::SelectionTrace trace;
  CompressorConfig config;
  if (explain) config.selection_trace = &trace;
  Buffer out;
  Timer timer;
  Status st = FczContainer::Pack(method, desc.value(), raw.value().span(),
                                 config, &out);
  double secs = timer.ElapsedSeconds();
  if (!st.ok()) {
    std::fprintf(stderr, "compress: %s\n", st.ToString().c_str());
    return 1;
  }
  st = WriteFile(out_path, out.span());
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("%s: %zu -> %zu bytes (ratio %.3f) in %.3f s (%.1f MB/s)\n",
              method.c_str(), raw.value().size(), out.size(),
              static_cast<double>(raw.value().size()) / out.size(), secs,
              raw.value().size() / secs / 1e6);
  if (explain) {
    if (trace.entries.empty()) {
      std::printf("(--explain: '%s' records no selection trace; use an "
                  "auto method)\n",
                  method.c_str());
    } else {
      std::printf("selection trace:\n%s", trace.ToString().c_str());
    }
  }
  return 0;
}

int CmdDecompress(int argc, char** argv) {
  if (argc < 4) {
    std::fprintf(stderr, "usage: fcbench_cli decompress <in.fcz> <out>\n");
    return 2;
  }
  auto file = ReadFile(argv[2]);
  if (!file.ok()) {
    std::fprintf(stderr, "%s\n", file.status().ToString().c_str());
    return 1;
  }
  ByteSpan in = file.value().span();
  ContainerInfo info;
  Timer timer;
  auto out = FczContainer::Unpack(in, &info);
  double secs = timer.ElapsedSeconds();
  if (!out.ok()) {
    std::fprintf(stderr, "decompress: %s\n", out.status().ToString().c_str());
    return 1;
  }
  Status st = WriteFile(argv[3], out.value().span());
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("%s: %zu -> %zu bytes in %.3f s (%s, checksums ok)\n",
              info.method.c_str(), in.size(), out.value().size(), secs,
              info.desc.ToString().c_str());
  return 0;
}

int CmdBench(int argc, char** argv) {
  std::string method = FlagValue(argc, argv, "method", "");
  auto pos = Positionals(argc, argv);
  size_t next = 1;
  if (method.empty() && pos.size() > next) method = pos[next++];
  if (method.empty() || pos.size() < next + 1) {
    std::fprintf(stderr, "usage: fcbench_cli bench <method> <in> "
                         "--dtype=f32|f64 [--repeats=N]\n");
    return 2;
  }
  auto raw = ReadFile(pos[next]);
  if (!raw.ok()) {
    std::fprintf(stderr, "%s\n", raw.status().ToString().c_str());
    return 1;
  }
  auto desc = ParseDesc(argc, argv, raw.value().size());
  if (!desc.ok()) {
    std::fprintf(stderr, "%s\n", desc.status().ToString().c_str());
    return 1;
  }
  int repeats = std::atoi(FlagValue(argc, argv, "repeats", "3").c_str());

  // Wrap the bytes in a Dataset so the standard runner protocol applies.
  data::Dataset ds;
  static data::DatasetInfo info{"cli-input", data::Domain::kHpc,
                                desc.value().dtype, desc.value().extent,
                                0.0, desc.value().precision_digits,
                                data::GenKind::kSmoothField, 0.0};
  ds.info = &info;
  ds.desc = desc.value();
  ds.bytes = Buffer::FromSpan(raw.value().span());

  BenchmarkRunner::Options opt;
  opt.repeats = repeats > 0 ? repeats : 3;
  BenchmarkRunner runner(opt);
  auto r = runner.RunOne(method, ds);
  if (!r.ok) {
    std::fprintf(stderr, "bench failed: %s\n", r.error.c_str());
    return 1;
  }
  std::printf("method      %s\n", r.method.c_str());
  std::printf("ratio       %.4f (%llu -> %llu bytes)\n", r.cr,
              static_cast<unsigned long long>(r.orig_bytes),
              static_cast<unsigned long long>(r.comp_bytes));
  std::printf("compress    %.4f GB/s (%.2f ms end-to-end)\n", r.ct_gbps,
              r.comp_wall_ms);
  std::printf("decompress  %.4f GB/s (%.2f ms end-to-end)\n", r.dt_gbps,
              r.decomp_wall_ms);
  std::printf("round trip  %s\n", r.round_trip_exact ? "bit-exact"
                                                     : "NOT exact");
  return 0;
}

int CmdGen(int argc, char** argv) {
  if (argc < 4) {
    std::fprintf(stderr,
                 "usage: fcbench_cli gen <dataset> <out> [--bytes=N]\n");
    return 2;
  }
  const data::DatasetInfo* info = data::FindDataset(argv[2]);
  if (info == nullptr) {
    std::fprintf(stderr, "unknown dataset '%s'; available:\n", argv[2]);
    for (const auto& d : data::AllDatasets()) {
      std::fprintf(stderr, "  %s\n", d.name.c_str());
    }
    return 1;
  }
  uint64_t bytes =
      std::strtoull(FlagValue(argc, argv, "bytes", "4194304").c_str(),
                    nullptr, 10);
  auto ds = data::GenerateDataset(*info, bytes);
  if (!ds.ok()) {
    std::fprintf(stderr, "%s\n", ds.status().ToString().c_str());
    return 1;
  }
  Status st = WriteFile(argv[3], ds.value().bytes.span());
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("generated %s: %s (%zu bytes) -> %s\n", info->name.c_str(),
              ds.value().desc.ToString().c_str(), ds.value().bytes.size(),
              argv[3]);
  std::printf("hint: --dtype=%s --dims=", DTypeName(info->dtype));
  for (size_t i = 0; i < ds.value().desc.extent.size(); ++i) {
    std::printf("%s%llu", i ? "x" : "",
                static_cast<unsigned long long>(ds.value().desc.extent[i]));
  }
  std::printf(" --precision=%d\n", info->precision_digits);
  return 0;
}

/// Renders the global registry in the requested exposition format.
int PrintStats(const std::string& format) {
  const obs::MetricsSnapshot snap = obs::MetricsRegistry::Global().Snapshot();
  if (format == "text") {
    std::fputs(snap.ToText().c_str(), stdout);
  } else if (format == "json") {
    std::printf("%s\n", snap.ToJson().c_str());
  } else if (format == "prom") {
    std::fputs(snap.ToPrometheus().c_str(), stdout);
  } else {
    std::fprintf(stderr, "--format must be text, json or prom\n");
    return 2;
  }
  return 0;
}

int CmdStats(int argc, char** argv) {
  // --exercise runs a small throwaway ingest+flush+selection workload
  // first, so the snapshot demonstrates the live metric catalog instead
  // of an empty registry.
  if (HasFlag(argc, argv, "exercise")) {
    const std::string dir =
        "/tmp/fcbench_stats_exercise_" + std::to_string(::getpid());
    db::lsm::EngineOptions opt;
    opt.background_flush = false;
    auto eng = db::lsm::IngestEngine::Open(
        dir, {{.name = "ts", .dtype = DType::kFloat64},
              {.name = "value", .dtype = DType::kFloat64}},
        opt);
    if (eng.ok()) {
      std::vector<double> batch(256 * 2);
      for (int b = 0; b < 8; ++b) {
        for (size_t i = 0; i < batch.size(); ++i) {
          batch[i] = static_cast<double>(b * 1000 + i);
        }
        (void)eng.value()->AppendBatch(batch);
      }
      (void)eng.value()->Flush();
      (void)eng.value()->Scrub();
      eng.value().reset();
      auto names = fs::ListDir(dir);
      if (names.ok()) {
        for (const auto& n : names.value()) {
          (void)fs::RemoveFile(fs::JoinPath(dir, n));
        }
      }
      ::rmdir(dir.c_str());
    }
  }
  const int rc = PrintStats(FlagValue(argc, argv, "format", "text"));
  if (rc != 0) return rc;
  if (HasFlag(argc, argv, "trace")) {
    std::printf("--- event trace (last 32) ---\n%s",
                obs::TraceCollector::Global().DumpEvents().c_str());
  }
  return 0;
}

int CmdIngest(int argc, char** argv) {
  auto pos = Positionals(argc, argv);
  if (pos.size() < 2) {
    std::fprintf(stderr,
                 "usage: fcbench_cli ingest <dir> [--shards=N] [--series=N] "
                 "[--rows=N] [--quota-bytes=N] [--fsync] [--scrub] "
                 "[--stats-every=N]\n"
                 "Appends --rows rows to each of --series series, hash-routed "
                 "across the store's shards,\nthen prints the per-shard "
                 "health/budget report. Reopening an existing store adopts "
                 "its\npinned shard count; pass --shards only to create.\n");
    return 2;
  }
  const std::string dir = pos[1];
  db::shard::ShardOptions opt;
  // 0 adopts the shard count pinned in <dir>/SHARDS; a new store needs
  // an explicit --shards.
  opt.num_shards = static_cast<size_t>(
      std::strtoull(FlagValue(argc, argv, "shards", "0").c_str(), nullptr, 10));
  opt.shard_quota_bytes = static_cast<size_t>(std::strtoull(
      FlagValue(argc, argv, "quota-bytes", "0").c_str(), nullptr, 10));
  opt.engine.sync_on_commit = HasFlag(argc, argv, "fsync");
  const uint64_t series =
      std::strtoull(FlagValue(argc, argv, "series", "16").c_str(), nullptr, 10);
  const uint64_t rows =
      std::strtoull(FlagValue(argc, argv, "rows", "128").c_str(), nullptr, 10);
  // Print a metrics snapshot every N series batches (0 = never): a live
  // view of the append/admission counters while the ingest runs.
  const uint64_t stats_every = std::strtoull(
      FlagValue(argc, argv, "stats-every", "0").c_str(), nullptr, 10);
  // --trace-out exports the run's span trace as Chrome trace JSON
  // (loadable in Perfetto / chrome://tracing). If sampling was not
  // already requested via FCBENCH_TRACE_SAMPLE, every root is sampled
  // so the exported file covers the whole run.
  const std::string trace_out = FlagValue(argc, argv, "trace-out", "");
  if (!trace_out.empty() && obs::TraceSampleN() == 0) {
    obs::SetTraceSampling(1);
  }

  std::vector<db::lsm::ColumnDef> schema(2);
  schema[0].name = "ts";
  schema[1].name = "value";
  auto opened = db::shard::ShardedIngestEngine::Open(dir, schema, opt);
  if (!opened.ok()) {
    std::fprintf(stderr, "open: %s\n", opened.status().ToString().c_str());
    return 1;
  }
  auto& eng = *opened.value();

  Timer timer;
  std::vector<double> batch(rows * 2);
  for (uint64_t s = 0; s < series; ++s) {
    for (uint64_t i = 0; i < rows; ++i) {
      batch[i * 2 + 0] = static_cast<double>(i);
      batch[i * 2 + 1] = static_cast<double>(s) * 1000.0 + i;
    }
    // Deadline-blocking append: ride out transient admission pressure
    // instead of failing fast, but bail out after 30 s.
    Status st = eng.AppendBatchUntil(
        s, batch, std::chrono::steady_clock::now() + std::chrono::seconds(30));
    if (!st.ok()) {
      std::fprintf(stderr, "append series %llu: %s\n",
                   static_cast<unsigned long long>(s), st.ToString().c_str());
      return 1;
    }
    if (stats_every > 0 && (s + 1) % stats_every == 0) {
      std::printf("--- metrics after %llu/%llu series ---\n",
                  static_cast<unsigned long long>(s + 1),
                  static_cast<unsigned long long>(series));
      std::fputs(
          obs::MetricsRegistry::Global().Snapshot().ToText().c_str(), stdout);
    }
  }
  const double secs = timer.ElapsedSeconds();
  Status st = eng.Flush();
  if (!st.ok()) {
    std::fprintf(stderr, "flush: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("ingested %llu rows (%llu series) in %.3f s (%.1f MB/s), "
              "total rows now %llu\n",
              static_cast<unsigned long long>(series * rows),
              static_cast<unsigned long long>(series), secs,
              series * rows * 2 * sizeof(double) / secs / 1e6,
              static_cast<unsigned long long>(eng.rows()));

  const db::shard::HealthReport health = eng.Health();
  for (const auto& sh : health.shards) {
    std::printf("shard-%zu: %llu rows, %zu buffered bytes, "
                "%llu appends / %llu flushes / %llu retries%s%s\n",
                sh.shard, static_cast<unsigned long long>(sh.rows),
                sh.buffered_bytes,
                static_cast<unsigned long long>(sh.stats.append_batches),
                static_cast<unsigned long long>(sh.stats.flushes),
                static_cast<unsigned long long>(sh.stats.retry_attempts),
                sh.read_only ? ", READ-ONLY: " : "",
                sh.read_only ? sh.error.ToString().c_str() : "");
  }
  std::printf("budget %zu/%zu bytes, %zu/%zu shards degraded\n",
              health.budget_used, health.budget_total, health.degraded_shards,
              health.shards.size());

  if (HasFlag(argc, argv, "scrub")) {
    const db::shard::ScrubSummary scrub = eng.Scrub();
    std::printf("scrub: %llu segments checked, %llu quarantined, clean=%s\n",
                static_cast<unsigned long long>(scrub.segments_checked),
                static_cast<unsigned long long>(scrub.segments_quarantined),
                scrub.all_clean ? "yes" : "no");
  }
  st = eng.Close();
  if (!st.ok()) {
    std::fprintf(stderr, "close: %s\n", st.ToString().c_str());
    return 1;
  }
  if (!trace_out.empty()) {
    auto& coll = obs::TraceCollector::Global();
    const std::string json = coll.ToChromeJson();
    Status wst = WriteFile(
        trace_out, ByteSpan(reinterpret_cast<const uint8_t*>(json.data()),
                            json.size()));
    if (!wst.ok()) {
      std::fprintf(stderr, "trace-out: %s\n", wst.ToString().c_str());
      return 1;
    }
    std::printf("trace: %llu records (%llu dropped) -> %s\n",
                static_cast<unsigned long long>(coll.recorded()),
                static_cast<unsigned long long>(coll.dropped()),
                trace_out.c_str());
  }
  return 0;
}

/// Runs a small self-contained ingest+flush+scrub workload with span
/// sampling forced on and prints (or writes) the Chrome trace JSON.
/// The quickest way to see what the tracer records without standing up
/// a real workload.
int CmdTrace(int argc, char** argv) {
  const std::string out_path = FlagValue(argc, argv, "out", "");
  const uint64_t series =
      std::strtoull(FlagValue(argc, argv, "series", "8").c_str(), nullptr, 10);
  const uint64_t rows =
      std::strtoull(FlagValue(argc, argv, "rows", "512").c_str(), nullptr, 10);
  const uint64_t sample =
      std::strtoull(FlagValue(argc, argv, "sample", "1").c_str(), nullptr, 10);
  const uint64_t seed =
      std::strtoull(FlagValue(argc, argv, "seed", "1").c_str(), nullptr, 10);
  obs::SetTraceSampling(sample == 0 ? 1 : sample, seed);

  const std::string dir =
      "/tmp/fcbench_trace_demo_" + std::to_string(::getpid());
  {
    db::shard::ShardOptions opt;
    opt.num_shards = 2;
    std::vector<db::lsm::ColumnDef> schema(2);
    schema[0].name = "ts";
    schema[1].name = "value";
    auto opened = db::shard::ShardedIngestEngine::Open(dir, schema, opt);
    if (!opened.ok()) {
      std::fprintf(stderr, "open: %s\n", opened.status().ToString().c_str());
      return 1;
    }
    auto& eng = *opened.value();
    std::vector<double> batch(rows * 2);
    for (uint64_t s = 0; s < series; ++s) {
      for (uint64_t i = 0; i < rows; ++i) {
        batch[i * 2 + 0] = static_cast<double>(i);
        batch[i * 2 + 1] = static_cast<double>(s) * 1000.0 + i;
      }
      Status st = eng.AppendBatch(s, batch);
      if (!st.ok()) {
        std::fprintf(stderr, "append: %s\n", st.ToString().c_str());
        return 1;
      }
    }
    Status st = eng.Flush();
    if (st.ok()) {
      (void)eng.Scrub();
      st = eng.Close();
    }
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
  }
  // Best-effort cleanup of the throwaway store (shard subdirectories).
  if (auto names = fs::ListDir(dir); names.ok()) {
    for (const auto& n : names.value()) {
      const std::string sub = fs::JoinPath(dir, n);
      if (auto inner = fs::ListDir(sub); inner.ok()) {
        for (const auto& f : inner.value()) {
          (void)fs::RemoveFile(fs::JoinPath(sub, f));
        }
        ::rmdir(sub.c_str());
      } else {
        (void)fs::RemoveFile(sub);
      }
    }
  }
  ::rmdir(dir.c_str());

  auto& coll = obs::TraceCollector::Global();
  const std::string json = coll.ToChromeJson();
  if (out_path.empty()) {
    std::fputs(json.c_str(), stdout);
    std::fputc('\n', stdout);
  } else {
    Status wst = WriteFile(
        out_path, ByteSpan(reinterpret_cast<const uint8_t*>(json.data()),
                           json.size()));
    if (!wst.ok()) {
      std::fprintf(stderr, "%s\n", wst.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "trace: %llu records (%llu dropped) -> %s\n",
                 static_cast<unsigned long long>(coll.recorded()),
                 static_cast<unsigned long long>(coll.dropped()),
                 out_path.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "fcbench_cli — FCBench compressor toolbox\n"
                 "commands: list | compress | decompress | bench | gen | "
                 "ingest | stats | trace\n");
    return 2;
  }
  std::string cmd = argv[1];
  if (cmd == "list") return CmdList();
  if (cmd == "stats") return CmdStats(argc, argv);
  if (cmd == "compress") return CmdCompress(argc, argv);
  if (cmd == "decompress") return CmdDecompress(argc, argv);
  if (cmd == "bench") return CmdBench(argc, argv);
  if (cmd == "gen") return CmdGen(argc, argv);
  if (cmd == "ingest") return CmdIngest(argc, argv);
  if (cmd == "trace") return CmdTrace(argc, argv);
  std::fprintf(stderr, "unknown command '%s'\n", cmd.c_str());
  return 2;
}

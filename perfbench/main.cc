// Benchmark runner: one workload per invocation.
//
//   perfbench_runner --workload <codec-corpus|load-scan|ingest-durable>
//                    --seed <n> --seconds <s> --trace <0|1>
//                    --workdir <dir> [--trace-out <file>]
//
// Untraced (--trace 0): repeats untraced cycles (set-up, then the timed
// write and read phases) of the workload for --seconds and reports the
// end-to-end metrics. Traced (--trace 1): repeats untraced cycles for
// half of --seconds and reports their unbounded figures (throughput,
// p99), then runs one traced cycle, replays the workload's inputs into
// each layer's public entry point, and reports the per-layer metrics;
// the spans go to --trace-out as Chrome-trace JSON.
//
// Human-readable lines come first; the last stdout line is one JSON
// object with the result, the provenance of the run and the sample count
// and tail of every timing.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "stats.h"
#include "util/thread_pool.h"

namespace perfbench {

namespace {

constexpr int kMinCycles = 3;

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
      out += buf;
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void Usage() {
  std::fprintf(stderr,
               "usage: perfbench_runner --workload "
               "<codec-corpus|load-scan|ingest-durable> --seed <n> "
               "--seconds <s> --trace <0|1> --workdir <dir> "
               "[--trace-out <file>]\n");
}

bool IsIngest(const std::string& w) {
  return w == "load-scan" || w == "ingest-durable";
}

IngestShape ShapeOf(const std::string& w) {
  return w == "ingest-durable" ? IngestDurableShape() : LoadScanShape();
}

CycleResult RunCycle(const Config& cfg, Tracer* tracer, Outcome* out) {
  if (IsIngest(cfg.workload)) {
    return RunIngestCycle(cfg, ShapeOf(cfg.workload), tracer, out);
  }
  return RunCodecCycle(cfg, tracer, out);
}

double Sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

/// Time the cycle's callers spent inside foreground operations, in ns.
double ForegroundNanos(const CycleResult& c) {
  return Sum(c.write_us) * 1e3 + Sum(c.read_ms) * 1e6;
}

std::string Provenance(const Config& cfg, int cycles) {
  const char* threads_env = std::getenv("FCBENCH_THREADS");
  std::string datasets, inputs;
  if (IsIngest(cfg.workload)) {
    const IngestShape s = ShapeOf(cfg.workload);
    datasets = "[\"wesad-chest\"]";
    inputs = "{\"batches\": " + std::to_string(s.batches) +
             ", \"batch_rows\": " + std::to_string(s.batch_rows) +
             ", \"columns\": 8, \"bytes_per_cycle\": " +
             std::to_string(s.batches * s.batch_rows * 64) +
             ", \"series_keys\": " + std::to_string(IngestInput::kSeries) +
             ", \"scans_per_cycle\": " + std::to_string(s.scans) +
             ", \"shards\": 4, \"sync_on_commit\": " +
             (s.sync_on_commit ? "true" : "false") +
             ", \"flush_policy\": \"engine defaults: 1 MiB memtable per "
             "shard, background flush, compaction fanout 4\"}";
  } else {
    datasets = "[";
    for (const std::string& n : CorpusNames()) {
      datasets += (datasets.size() > 1 ? ", " : "") + JsonString(n);
    }
    datasets += "]";
    inputs = "{\"bytes_per_dataset\": 1048576, \"methods\": " +
             std::to_string(CodecMethods().size()) +
             ", \"compressor_threads\": 1}";
  }
  return "{\"workload\": " + JsonString(cfg.workload) +
         ", \"seed\": " + std::to_string(cfg.seed) +
         ", \"seconds\": " + JsonNumber(cfg.seconds) +
         ", \"cycles\": " + std::to_string(cycles) +
         ", \"datasets\": " + datasets + ", \"inputs\": " + inputs +
         ", \"load_threads\": " + std::to_string(kLoadThreads) +
         ", \"fcbench_threads_env\": " +
         JsonString(threads_env ? threads_env : "unset") +
         ", \"pool_threads\": " +
         std::to_string(fcbench::ThreadPool::DefaultThreads()) +
         ", \"hardware_concurrency\": " +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"metrics_enabled\": " +
         (fcbench::obs::Enabled() ? "true" : "false") +
         ", \"engine_span_tracing\": " +
         (fcbench::obs::TracingActive() ? "true" : "false") +
         ", \"benchmark_spans\": " + (cfg.trace ? "true" : "false") + "}";
}

/// End-to-end samples pooled over the cycles of a run.
struct Pooled {
  int cycles = 0;
  std::vector<double> setup_s, write_mbps, read_mbps, stored, write_us,
      read_ms, foreground_ns;

  void Add(const CycleResult& c) {
    ++cycles;
    setup_s.push_back(c.setup_s);
    write_mbps.push_back(c.write_bytes / c.write_s / 1e6);
    read_mbps.push_back(c.read_bytes / c.read_s / 1e6);
    stored.push_back(c.stored_bytes / c.user_bytes);
    write_us.insert(write_us.end(), c.write_us.begin(), c.write_us.end());
    read_ms.insert(read_ms.end(), c.read_ms.begin(), c.read_ms.end());
    foreground_ns.push_back(ForegroundNanos(c));
  }
};

/// Untraced cycles for `cfg.seconds` (at least kMinCycles): a cycle is
/// started only while a cycle of median length still fits.
Pooled RunCycles(const Config& cfg, Outcome* out) {
  Pooled p;
  std::vector<double> cycle_s;
  const uint64_t start = NowNanos();
  while (p.cycles < kMinCycles ||
         (NowNanos() - start) / 1e9 + Percentile(cycle_s, 50) < cfg.seconds) {
    const uint64_t cycle_start = NowNanos();
    p.Add(RunCycle(cfg, nullptr, out));
    cycle_s.push_back((NowNanos() - cycle_start) / 1e9);
  }
  return p;
}

int Run(const Config& cfg, const std::string& trace_out) {
  Outcome out;
  std::vector<Metric> metrics;
  std::vector<Detail> details;

  // Both modes first run the workload untraced: the untraced run for the
  // whole budget, reported as end-to-end metrics; the traced run for half
  // of it, to take the unbounded figures and the baseline of the tracing
  // overhead, leaving time for the traced cycle and the layer replays.
  Config untraced = cfg;
  if (cfg.trace) untraced.seconds = cfg.seconds / 2;
  const Pooled p = RunCycles(untraced, &out);
  details = {{"setup_s (per cycle)", Summarize(p.setup_s).ToString()},
             {"write_mbps (per cycle)", Summarize(p.write_mbps).ToString()},
             {"read_mbps (per cycle)", Summarize(p.read_mbps).ToString()},
             {"write_us (per operation)", Summarize(p.write_us).ToString()},
             {"read_ms (per operation)", Summarize(p.read_ms).ToString()}};

  if (!cfg.trace) {
    // Medians of per-operation latency. Throughput and p99 figures move
    // by more than the bounds allow between runs on a shared 4-core host
    // with a shared disk, so the traced run reports them, unbounded.
    metrics = {
        {"setup_s", Percentile(p.setup_s, 50), "s"},
        {"write_p50_us", Percentile(p.write_us, 50), "us"},
        {"read_p50_ms", Percentile(p.read_ms, 50), "ms"},
        {"stored_bytes_per_user_byte", Percentile(p.stored, 50), "ratio"},
    };
  } else {
    for (const auto* s : {&p.write_us, &p.read_ms}) {
      if (!Summarize(*s).Supports(99)) {
        details.push_back({"warning", "p99 has fewer than 10 samples beyond "
                                      "it; raise --seconds"});
      }
    }
    metrics = {{"e2e.write_mbps", Percentile(p.write_mbps, 50), "MB/s"},
               {"e2e.read_mbps", Percentile(p.read_mbps, 50), "MB/s"},
               {"e2e.write_p99_us", Percentile(p.write_us, 99), "us"},
               {"e2e.read_p99_ms", Percentile(p.read_ms, 99), "ms"}};
    Tracer tracer(cfg.workload);
    const CycleResult traced = RunCycle(cfg, &tracer, &out);

    // Layer replays. codec-corpus inputs never reach the engine, so its
    // engine layers replay the load-scan input made from the same seed;
    // every traced run thus reports the same per-layer set. Coverage
    // counts only the layers under the workload's foreground operations:
    // the codec layers for codec-corpus, the engine layers otherwise.
    LayerReport codec, engine;
    const IngestShape shape = ShapeOf(cfg.workload);
    std::vector<CodecInput> columns =
        ReplayIngestLayers(cfg, shape, &tracer, &out, &engine);
    if (IsIngest(cfg.workload)) {
      ReplayCodecLayers(columns, &tracer, &out, &codec);
    } else {
      ReplayCodecLayers(MakeCorpus(cfg.seed), &tracer, &out, &codec);
    }
    const double layer_ns =
        IsIngest(cfg.workload) ? engine.layer_ns : codec.layer_ns;
    for (LayerReport* r : {&codec, &engine}) {
      metrics.insert(metrics.end(), r->metrics.begin(), r->metrics.end());
      details.insert(details.end(), r->details.begin(), r->details.end());
    }
    const double fg_plain = Percentile(p.foreground_ns, 50);
    const double fg_traced = ForegroundNanos(traced);
    metrics.push_back({"trace.coverage", layer_ns / fg_traced, "ratio"});
    metrics.push_back(
        {"trace.overhead_pct", (fg_traced - fg_plain) / fg_plain * 100, "%"});
    details.push_back({"traced cycle write_us",
                       Summarize(traced.write_us).ToString()});
    details.push_back({"traced cycle read_ms",
                       Summarize(traced.read_ms).ToString()});

    if (!trace_out.empty()) {
      std::ofstream f(trace_out, std::ios::trunc);
      f << tracer.ChromeJson();
      if (!f) {
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     trace_out.c_str());
      }
    }
  }
  const int cycles = p.cycles + (cfg.trace ? 1 : 0);

  bool finite = true;
  for (const Metric& m : metrics) {
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "perfbench: metric %s is not finite\n",
                   m.name.c_str());
      finite = false;
    }
  }
  if (!finite) return 4;

  const double failed_pct =
      out.attempted() == 0 ? 100.0 : 100.0 * out.failed() / out.attempted();
  details.push_back({"failed_ops_pct", JsonNumber(failed_pct)});
  for (const Metric& m : metrics) {
    std::printf("%-40s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const Detail& d : details) {
    std::printf("  %-38s %s\n", d.name.c_str(), d.summary.c_str());
  }

  std::string json = "{\"correct\": ";
  json += out.failed() == 0 && out.attempted() > 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted());
  json += ", \"failed\": " + std::to_string(out.failed());
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    json += (i ? ", " : "") + JsonString(metrics[i].name) +
            ": {\"value\": " + JsonNumber(metrics[i].value) +
            ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  json += "}, \"provenance\": " + Provenance(cfg, cycles);
  json += ", \"details\": {";
  for (size_t i = 0; i < details.size(); ++i) {
    json += (i ? ", " : "") + JsonString(details[i].name) + ": " +
            JsonString(details[i].summary);
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace

void Outcome::Op(bool ok, const std::string& what) {
  attempted_.fetch_add(1);
  if (!ok && failed_.fetch_add(1) < 10) {
    std::fprintf(stderr, "perfbench: failed: %s\n", what.c_str());
  }
}

}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Config cfg;
  std::string trace_out;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i], value = argv[i + 1];
    if (flag == "--workload") {
      cfg.workload = value;
    } else if (flag == "--seed") {
      cfg.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      cfg.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      cfg.trace = value == "1";
    } else if (flag == "--workdir") {
      cfg.workdir = value;
    } else if (flag == "--trace-out") {
      trace_out = value;
    } else {
      perfbench::Usage();
      return 2;
    }
  }
  if ((argc - 1) % 2 != 0 || cfg.workdir.empty() || cfg.seconds <= 0 ||
      (cfg.workload != "codec-corpus" && !perfbench::IsIngest(cfg.workload))) {
    perfbench::Usage();
    return 2;
  }
  perfbench::RemoveTree(cfg.workdir);
  std::filesystem::create_directories(cfg.workdir);
  const int rc = perfbench::Run(cfg, trace_out);
  perfbench::RemoveTree(cfg.workdir);
  return rc;
}

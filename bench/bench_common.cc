#include "bench_common.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace fcbench::bench {

const std::vector<std::string>& PaperMethods() {
  static const std::vector<std::string>* methods =
      new std::vector<std::string>{
          "pfpc",    "spdp",       "fpzip",     "bitshuffle_lz4",
          "bitshuffle_zstd", "ndzip_cpu", "buff", "gorilla",
          "chimp128", "gfc",       "mpc",       "nv_lz4",
          "nv_bitcomp", "ndzip_gpu"};
  return *methods;
}

std::vector<std::string> CpuMethods() {
  return {"pfpc",  "spdp",    "fpzip",   "bitshuffle_lz4", "bitshuffle_zstd",
          "ndzip_cpu", "buff", "gorilla", "chimp128"};
}

std::vector<std::string> GpuMethods() {
  return {"gfc", "mpc", "nv_lz4", "nv_bitcomp", "ndzip_gpu"};
}

uint64_t BenchBytes(uint64_t fallback) {
  const char* env = std::getenv("FCBENCH_BENCH_BYTES");
  if (env != nullptr) {
    uint64_t v = std::strtoull(env, nullptr, 10);
    if (v >= 1024) return v;
  }
  return fallback;
}

int BenchRepeats(int fallback) {
  const char* env = std::getenv("FCBENCH_BENCH_REPEATS");
  if (env != nullptr) {
    int v = std::atoi(env);
    if (v >= 1) return v;
  }
  return fallback;
}

std::vector<RunResult> RunFullSweep(const std::vector<std::string>& methods) {
  BenchmarkRunner::Options opt;
  opt.repeats = BenchRepeats();
  opt.dataset_bytes = BenchBytes();
  BenchmarkRunner runner(opt);
  return runner.RunAll(methods, data::AllDatasets());
}

TablePrinter::TablePrinter(std::vector<std::string> headers, int col_width,
                           int first_width)
    : headers_(std::move(headers)),
      col_width_(col_width),
      first_width_(first_width) {}

void TablePrinter::AddRow(const std::vector<std::string>& cells) {
  rows_.push_back(cells);
}

void TablePrinter::Print() const {
  auto print_row = [&](const std::vector<std::string>& cells) {
    for (size_t i = 0; i < cells.size(); ++i) {
      int w = (i == 0) ? first_width_ : col_width_;
      std::printf("%-*s", w, cells[i].c_str());
    }
    std::printf("\n");
  };
  print_row(headers_);
  size_t total = first_width_ + col_width_ * (headers_.size() - 1);
  std::printf("%s\n", std::string(total, '-').c_str());
  for (const auto& r : rows_) print_row(r);
}

std::string TablePrinter::Fmt(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

void Banner(const std::string& experiment, const std::string& paper_ref) {
  std::printf("==============================================================\n");
  std::printf("FCBench reproduction: %s (%s)\n", experiment.c_str(),
              paper_ref.c_str());
  std::printf("dataset scale: %llu bytes/dataset, %d repeats\n",
              static_cast<unsigned long long>(BenchBytes()), BenchRepeats());
  std::printf("==============================================================\n");
}

void JsonReporter::Add(const std::string& method, const std::string& dataset,
                       double cr, double ct_gbps, double dt_gbps) {
  rows_.push_back(Row{method, dataset, cr, ct_gbps, dt_gbps, {}});
}

void JsonReporter::Add(
    const std::string& method, const std::string& dataset, double cr,
    double ct_gbps, double dt_gbps,
    const std::vector<std::pair<std::string, double>>& extras) {
  rows_.push_back(Row{method, dataset, cr, ct_gbps, dt_gbps, extras});
}

bool JsonReporter::WriteToFile(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "JsonReporter: cannot open %s\n", path.c_str());
    return false;
  }
  std::fprintf(f, "[\n");
  for (size_t i = 0; i < rows_.size(); ++i) {
    const Row& r = rows_[i];
    std::fprintf(f,
                 "  {\"method\": \"%s\", \"dataset\": \"%s\", "
                 "\"cr\": %.4f, \"ct_gbps\": %.4f, \"dt_gbps\": %.4f",
                 r.method.c_str(), r.dataset.c_str(), r.cr, r.ct_gbps,
                 r.dt_gbps);
    for (const auto& [key, value] : r.extras) {
      std::fprintf(f, ", \"%s\": %.4f", key.c_str(), value);
    }
    std::fprintf(f, "}%s\n", i + 1 < rows_.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  bool ok = std::fclose(f) == 0;
  if (ok) std::printf("wrote %zu rows to %s\n", rows_.size(), path.c_str());
  return ok;
}

std::string JsonOutputPath(int argc, char** argv,
                           const std::string& default_path) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--json") return default_path;
    if (arg.rfind("--json=", 0) == 0) return arg.substr(7);
  }
  return "";
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double idx = p / 100.0 * (v.size() - 1);
  size_t lo = static_cast<size_t>(idx);
  size_t hi = std::min(lo + 1, v.size() - 1);
  double frac = idx - lo;
  return v[lo] * (1 - frac) + v[hi] * frac;
}

}  // namespace fcbench::bench

#ifndef FCBENCH_BENCH_BENCH_COMMON_H_
#define FCBENCH_BENCH_BENCH_COMMON_H_

#include <string>
#include <utility>
#include <vector>

#include "core/runner.h"
#include "data/dataset.h"

namespace fcbench::bench {

/// The 14 Table-4 method columns, in paper order.
const std::vector<std::string>& PaperMethods();

/// CPU subset / GPU subset of PaperMethods().
std::vector<std::string> CpuMethods();
std::vector<std::string> GpuMethods();

/// Per-dataset payload size for bench sweeps; FCBENCH_BENCH_BYTES
/// overrides the default (2 MiB) for larger-scale runs.
uint64_t BenchBytes(uint64_t fallback = 2ull << 20);

/// Benchmark repetitions; FCBENCH_BENCH_REPEATS overrides (default 2; the
/// paper uses 10).
int BenchRepeats(int fallback = 2);

/// Runs the full (methods x 33 datasets) sweep with the standard options
/// (BenchBytes() per dataset, BenchRepeats() repeats). paper_report runs
/// it once and renders Tables 4-6 and Figures 5-7 and 9 from the result.
std::vector<RunResult> RunFullSweep(const std::vector<std::string>& methods);

/// Fixed-width table printing.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers, int col_width = 10,
                        int first_width = 16);

  void AddRow(const std::vector<std::string>& cells);
  void Print() const;

  static std::string Fmt(double v, int precision = 3);

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
  int col_width_;
  int first_width_;
};

/// Prints the standard bench banner (binary name + scale knobs).
void Banner(const std::string& experiment, const std::string& paper_ref);

/// Collects benchmark rows and writes them as a JSON array using the
/// repo-wide BENCH_*.json schema: one object per row with keys
///   method (string), dataset (string), cr, ct_gbps, dt_gbps (numbers).
/// This is how the perf trajectory is recorded: each perf-relevant PR
/// commits a refreshed BENCH_*.json produced by the touched benches, so
/// speedups are reviewable artifacts rather than claims.
class JsonReporter {
 public:
  void Add(const std::string& method, const std::string& dataset, double cr,
           double ct_gbps, double dt_gbps);
  /// Same row plus extra numeric keys appended after the fixed schema
  /// (e.g. append-latency percentiles from the obs histograms). Extra
  /// keys must be valid JSON identifiers; values print with %.4f.
  void Add(const std::string& method, const std::string& dataset, double cr,
           double ct_gbps, double dt_gbps,
           const std::vector<std::pair<std::string, double>>& extras);

  /// Serializes all rows; returns false (and prints to stderr) on I/O
  /// failure.
  bool WriteToFile(const std::string& path) const;

  size_t size() const { return rows_.size(); }

 private:
  struct Row {
    std::string method;
    std::string dataset;
    double cr;
    double ct_gbps;
    double dt_gbps;
    std::vector<std::pair<std::string, double>> extras;
  };
  std::vector<Row> rows_;
};

/// Parses a `--json[=path]` flag: returns `default_path` for a bare
/// `--json`, the given path for `--json=path`, and "" when the flag is
/// absent (benches then print tables only).
std::string JsonOutputPath(int argc, char** argv,
                           const std::string& default_path);

/// Percentile of a sorted copy of `v` (p in [0,100]).
double Percentile(std::vector<double> v, double p);

}  // namespace fcbench::bench

#endif  // FCBENCH_BENCH_BENCH_COMMON_H_

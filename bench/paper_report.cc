// The paper's measurement matrix, measured once: every Table-4 method on
// every dataset stand-in under the §5.2 protocol (RunFullSweep), then
// rendered as Table 4, Figures 5, 6 and 7, Table 5 / Figure 8, Figure 9
// and Table 6, each from that one result vector.
//
// `--json[=path]` (default BENCH_paper_sweep.json) writes one row per
// (method, dataset): cr, ct_gbps, dt_gbps, plus ok (1 = the method ran
// and round-tripped the dataset, 0 = it rejected it), comp_wall_ms,
// decomp_wall_ms, dataset_bytes (the generated stand-in's size), repeats
// and cores. The rows come from the synthetic stand-ins of
// src/data/generators.cc, not the paper's datasets. CR and ok are
// deterministic at a given FCBENCH_BENCH_BYTES; GPU methods' timings are
// the SIMT cost model's, CPU methods' are wall clock on this host.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/compressor.h"
#include "stats/stats.h"
#include "util/entropy.h"

namespace fcbench::bench {
namespace {

bool IsGpu(const std::string& method) {
  const auto gpu = GpuMethods();
  return std::find(gpu.begin(), gpu.end(), method) != gpu.end();
}

// Table 4: the full 33-dataset x 14-method compression-ratio matrix with
// per-domain averages and the overall average (harmonic means, §5.2).
void RenderTable4(const std::vector<RunResult>& results,
                  const std::vector<MethodSummary>& summaries) {
  Banner("Table 4 - compression ratio matrix", "paper §6.1.1");
  const auto& methods = PaperMethods();
  std::map<std::pair<std::string, std::string>, const RunResult*> lookup;
  for (const auto& r : results) lookup[{r.dataset, r.method}] = &r;

  std::vector<std::string> headers = {"dataset"};
  for (const auto& m : methods) headers.push_back(m.substr(0, 9));
  TablePrinter table(headers, 10, 18);

  data::Domain current = data::Domain::kHpc;
  std::map<std::string, std::vector<double>> domain_crs;
  auto flush_domain = [&](data::Domain d) {
    std::vector<std::string> row = {std::string("avg-") +
                                    std::string(data::DomainName(d))};
    for (const auto& m : methods) {
      auto& v = domain_crs[m];
      // A method that ran on no dataset of the domain has no average.
      row.push_back(v.empty() ? "-"
                              : TablePrinter::Fmt(
                                    HarmonicMean(v.data(), v.size())));
      v.clear();
    }
    table.AddRow(row);
  };

  bool first = true;
  for (const auto& info : data::AllDatasets()) {
    if (!first && info.domain != current) flush_domain(current);
    first = false;
    current = info.domain;
    std::vector<std::string> row = {info.name};
    for (const auto& m : methods) {
      auto it = lookup.find({info.name, m});
      if (it == lookup.end() || !it->second->ok) {
        row.push_back("-");  // paper's "-" cells (runtime errors / limits)
      } else {
        row.push_back(TablePrinter::Fmt(it->second->cr));
        domain_crs[m].push_back(it->second->cr);
      }
    }
    table.AddRow(row);
  }
  flush_domain(current);

  // Overall harmonic means (Figure 7a values).
  std::vector<std::string> overall = {"overall-avg"};
  for (const auto& m : methods) {
    for (const auto& s : summaries) {
      if (s.method == m) {
        overall.push_back(TablePrinter::Fmt(s.harmonic_cr));
      }
    }
  }
  table.AddRow(overall);
  table.Print();

  std::printf("\nNote: '-' marks runs the method rejected (e.g. GFC on "
              "single-precision data), matching the paper's missing "
              "cells.\n");
}

void RenderBoxPlot(const std::vector<double>& sorted) {
  double lo = 1.0, hi = *std::max_element(sorted.begin(), sorted.end());
  double q1 = Percentile(sorted, 25), med = Percentile(sorted, 50),
         q3 = Percentile(sorted, 75);
  const int width = 64;
  auto pos = [&](double v) {
    double x = std::log2(std::max(v, lo) / lo) /
               std::log2(std::max(hi / lo, 1.0001));
    return std::min(width - 1, static_cast<int>(x * (width - 1)));
  };
  std::string line(width, ' ');
  for (int i = pos(q1); i <= pos(q3); ++i) line[i] = '=';
  line[pos(med)] = '|';
  for (double v : sorted) {
    if (v > q3 + 1.5 * (q3 - q1)) line[pos(v)] = 'o';  // outliers
  }
  std::printf("  1.0 [%s] %.1f  (log scale)\n", line.c_str(), hi);
}

// Figure 5: box plot of all measured compression ratios, plus the §6.1.1
// Observation 1 summary (median ~1.16, outliers up to ~22.8, CRs mostly
// <= 2.0: "floating-point data is difficult to compress").
void RenderFig5(const std::vector<RunResult>& results) {
  Banner("Figure 5 - boxplot of compression ratios", "paper §6.1.1 Obs. 1");
  std::vector<double> crs;
  for (const auto& r : results) {
    if (r.ok && r.cr > 0) crs.push_back(r.cr);
  }
  std::sort(crs.begin(), crs.end());

  RenderBoxPlot(crs);
  double med = Percentile(crs, 50);
  std::printf("\nmeasurements: %zu\n", crs.size());
  std::printf("min / q1 / median / q3 / max: %.3f / %.3f / %.3f / %.3f / %.3f\n",
              crs.front(), Percentile(crs, 25), med, Percentile(crs, 75),
              crs.back());
  size_t le2 = std::count_if(crs.begin(), crs.end(),
                             [](double c) { return c <= 2.0; });
  std::printf("share of CRs <= 2.0: %.1f%%  (paper: most, median 1.16)\n",
              100.0 * le2 / crs.size());
  std::printf("outliers above 2.0 range up to %.1fx (paper: 2.0 - 22.8)\n",
              crs.back());
  std::printf("\nObservation 1 reproduced: median CR %s 2.0 -> "
              "floating-point data is difficult to compress.\n",
              med <= 2.0 ? "<=" : ">");
}

void PrintGroup(const char* title,
                const std::map<std::string, std::vector<double>>& groups) {
  std::printf("\n%s\n", title);
  TablePrinter t({"group", "median", "q1", "q3", "n"}, 10, 14);
  for (const auto& [name, crs] : groups) {
    t.AddRow({name, TablePrinter::Fmt(Percentile(crs, 50)),
              TablePrinter::Fmt(Percentile(crs, 25)),
              TablePrinter::Fmt(Percentile(crs, 75)),
              std::to_string(crs.size())});
  }
  t.Print();
}

// Figure 6: compression ratios grouped by (a) data type and domain and
// (b) predictor class and hardware platform (§6.1.1 medians:
// single > double; OBS > HPC/TS > DB; dictionary > Lorenzo > delta;
// CPU > GPU).
void RenderFig6(const std::vector<RunResult>& results) {
  Banner("Figure 6 - CR by data/method groups", "paper §6.1.1 Obs. 1");
  std::map<std::string, std::vector<double>> by_dtype, by_domain, by_pred,
      by_arch;
  auto& registry = CompressorRegistry::Global();
  std::map<std::string, CompressorTraits> traits;
  for (const auto& m : PaperMethods()) {
    traits[m] = registry.Create(m).value()->traits();
  }

  for (const auto& r : results) {
    if (!r.ok || r.cr <= 0) continue;
    const data::DatasetInfo* info = data::FindDataset(r.dataset);
    by_dtype[info->dtype == DType::kFloat32 ? "single(f32)" : "double(f64)"]
        .push_back(r.cr);
    by_domain[std::string(data::DomainName(info->domain))].push_back(r.cr);
    by_pred[std::string(PredictorClassName(traits[r.method].predictor))]
        .push_back(r.cr);
    by_arch[traits[r.method].arch == Arch::kCpu ? "CPU" : "GPU"].push_back(
        r.cr);
  }

  PrintGroup("(a1) by precision", by_dtype);
  PrintGroup("(a2) by data domain", by_domain);
  PrintGroup("(b1) by predictor class", by_pred);
  PrintGroup("(b2) by hardware platform", by_arch);

  auto med = [&](std::map<std::string, std::vector<double>>& g,
                 const std::string& k) { return Percentile(g[k], 50); };
  std::printf("\nShape checks vs. paper:\n");
  std::printf("  single >= double:        %s (%.3f vs %.3f; paper 1.225 vs 1.202)\n",
              med(by_dtype, "single(f32)") >= med(by_dtype, "double(f64)")
                  ? "yes" : "NO",
              med(by_dtype, "single(f32)"), med(by_dtype, "double(f64)"));
  std::printf("  DB hardest domain:       %s (DB median %.3f; paper 1.080)\n",
              med(by_domain, "DB") <= med(by_domain, "HPC") &&
                      med(by_domain, "DB") <= med(by_domain, "OBS")
                  ? "yes" : "NO",
              med(by_domain, "DB"));
  std::printf("  dictionary > delta:      %s (%.3f vs %.3f; paper 1.309 vs 1.116)\n",
              med(by_pred, "DICTIONARY") > med(by_pred, "DELTA") ? "yes"
                                                                 : "NO",
              med(by_pred, "DICTIONARY"), med(by_pred, "DELTA"));
  std::printf("  CPU >= GPU:              %s (%.3f vs %.3f)\n",
              med(by_arch, "CPU") >= med(by_arch, "GPU") ? "yes" : "NO",
              med(by_arch, "CPU"), med(by_arch, "GPU"));
}

// Figure 7: (a) average (harmonic-mean) compression ratios per method and
// (b) the Friedman test + Nemenyi critical-difference diagram over the
// 33 x 14 CR matrix (paper §6.1.1 Observation 2: "no significant
// winner"). Returns false when the Friedman test cannot run.
bool RenderFig7(const std::vector<RunResult>& results,
                const std::vector<MethodSummary>& summaries) {
  Banner("Figure 7 - CR ranking + critical difference",
         "paper §6.1.1 Obs. 2, §5.4");
  const auto& methods = PaperMethods();

  // (a) harmonic-mean CRs.
  std::printf("\n(a) harmonic-mean compression ratios\n");
  TablePrinter t({"method", "harmonic CR", "failures"}, 14, 18);
  for (const auto& s : summaries) {
    t.AddRow({s.method, TablePrinter::Fmt(s.harmonic_cr),
              std::to_string(s.failures)});
  }
  t.Print();

  // (b) Friedman + Nemenyi over the full matrix.
  std::vector<std::string> dataset_names;
  for (const auto& d : data::AllDatasets()) dataset_names.push_back(d.name);
  auto matrix = CrMatrix(results, methods, dataset_names);
  auto fr = stats::FriedmanTest(matrix);
  if (!fr.ok()) {
    std::printf("Friedman test failed: %s\n",
                fr.status().ToString().c_str());
    return false;
  }
  std::printf("\n(b) Friedman test: chi2 = %.2f, p = %.3g (k=%d, N=%d) -> %s\n",
              fr.value().chi2, fr.value().p_value, fr.value().k,
              fr.value().n,
              fr.value().reject_h0
                  ? "reject H0: methods differ (as in the paper)"
                  : "cannot reject H0");
  auto cd = stats::BuildCdDiagram(methods, fr.value().avg_ranks,
                                  fr.value().n);
  std::printf("%s", cd.Render().c_str());

  // Pairwise follow-up (Demsar 2006): Wilcoxon signed-rank on the two
  // best-ranked methods over the per-dataset CR columns. This is the
  // "no significant winner" observation made precise for the top pair.
  int best = 0, second = 1;
  for (size_t m = 0; m < methods.size(); ++m) {
    if (fr.value().avg_ranks[m] < fr.value().avg_ranks[best]) {
      second = best;
      best = static_cast<int>(m);
    } else if (static_cast<int>(m) != best &&
               fr.value().avg_ranks[m] < fr.value().avg_ranks[second]) {
      second = static_cast<int>(m);
    }
  }
  std::vector<double> col_a, col_b;
  for (const auto& row : matrix) {
    col_a.push_back(row[best]);
    col_b.push_back(row[second]);
  }
  auto wx = stats::WilcoxonSignedRankTest(col_a, col_b);
  std::printf("\nWilcoxon signed-rank, top pair %s vs %s: W = %.1f, "
              "p = %.3g -> %s\n",
              methods[best].c_str(), methods[second].c_str(), wx.w,
              wx.p_value,
              wx.significant ? "significant pairwise difference"
                             : "no significant pairwise difference "
                               "(consistent with the paper's Obs. 2)");

  std::printf("\nShape check vs. paper: the top clique should join several "
              "dictionary/transform methods (bitshuffle, chimp, SPDP, "
              "nv::LZ4, MPC, fpzip) with no single significant winner; GFC "
              "ranks at the bottom.\n");
  return true;
}

// Table 5 + Figure 8: average compression and decompression throughput
// per method (GB/s). CPU methods are wall-clock measured on this host;
// GPU methods report the SIMT cost model's device throughput (§5.2,
// DESIGN.md substitution table). Observation 3: GPU-based methods are
// orders of magnitude faster; Observation 4: decompression tends to be
// faster than compression.
void RenderTable5(const std::vector<MethodSummary>& summaries) {
  Banner("Table 5 / Figure 8 - throughputs", "paper §6.1.2-6.1.3");
  TablePrinter t({"method", "avg CT GB/s", "avg DT GB/s", "arch"}, 13, 18);
  std::vector<double> gpu_cts, cpu_cts;
  for (const auto& s : summaries) {
    bool is_gpu = IsGpu(s.method);
    t.AddRow({s.method, TablePrinter::Fmt(s.mean_ct_gbps),
              TablePrinter::Fmt(s.mean_dt_gbps), is_gpu ? "GPU" : "CPU"});
    (is_gpu ? gpu_cts : cpu_cts).push_back(s.mean_ct_gbps);
  }
  t.Print();

  double gpu_med = Percentile(gpu_cts, 50);
  double cpu_med = Percentile(cpu_cts, 50);
  std::printf("\nObservation 3: GPU median CT %.2f GB/s vs CPU median %.3f "
              "GB/s -> %.0fx (paper: ~350x, 73.71 vs 0.21)\n",
              gpu_med, cpu_med, cpu_med > 0 ? gpu_med / cpu_med : 0.0);

  int decomp_faster = 0, total = 0;
  for (const auto& s : summaries) {
    ++total;
    if (s.mean_dt_gbps >= s.mean_ct_gbps * 0.8) ++decomp_faster;
  }
  std::printf("Observation 4: decompression >= ~compression for %d/%d "
              "methods (LZ-family strongly asymmetric).\n",
              decomp_faster, total);
}

// Figure 9: rD = (CT - DT) / CT per method. Negative rD means
// decompression is faster than compression; the paper highlights
// nvCOMP::LZ4 at -18.64 and Chimp at -4.16, with delta/Lorenzo methods
// near balance.
void RenderFig9(const std::vector<MethodSummary>& summaries) {
  Banner("Figure 9 - compression/decompression asymmetry", "paper §6.1.3");
  TablePrinter t({"method", "rD=(CT-DT)/CT", "reading"}, 16, 18);
  double rd_nvlz4 = 0, rd_ndzip = 0;
  for (const auto& s : summaries) {
    double rd = s.mean_ct_gbps > 0
                    ? (s.mean_ct_gbps - s.mean_dt_gbps) / s.mean_ct_gbps
                    : 0;
    const char* reading = rd < -1.0   ? "decompress >> compress"
                          : rd < -0.1 ? "decompress faster"
                          : rd > 0.1  ? "compress faster"
                                      : "balanced";
    t.AddRow({s.method, TablePrinter::Fmt(rd, 2), reading});
    if (s.method == "nv_lz4") rd_nvlz4 = rd;
    if (s.method == "ndzip_cpu") rd_ndzip = rd;
  }
  t.Print();

  std::printf("\nShape checks vs. paper:\n");
  std::printf("  nv_lz4 strongly asymmetric (paper -18.64): rD = %.2f -> %s\n",
              rd_nvlz4, rd_nvlz4 < -3.0 ? "yes" : "NO");
  std::printf("  ndzip balanced (paper 0.25): rD = %.2f -> %s\n", rd_ndzip,
              std::abs(rd_ndzip) < 0.6 ? "yes" : "NO");
  std::printf("Takeaway: dictionary methods decode with far fewer "
              "computations than they search during encode; good for "
              "query-heavy databases.\n");
}

// Table 6: end-to-end wall time (ms), including the host-to-device /
// device-to-host memory copies for GPU methods. The §6.1.4 takeaway:
// transfers are non-negligible -- bitshuffle on the CPU becomes
// competitive with GFC/MPC, and ndzip-CPU can beat ndzip-GPU end to end.
void RenderTable6(const std::vector<MethodSummary>& summaries) {
  Banner("Table 6 - end-to-end wall time", "paper §6.1.4");
  TablePrinter t({"method", "avg comp ms", "avg decomp ms", "arch"}, 15, 18);
  double shf_zstd = 0, gfc = 0, ndzip_c = 0, ndzip_g = 0, mpc = 0;
  for (const auto& s : summaries) {
    t.AddRow({s.method, TablePrinter::Fmt(s.mean_comp_wall_ms, 2),
              TablePrinter::Fmt(s.mean_decomp_wall_ms, 2),
              IsGpu(s.method) ? "GPU (modeled, incl. H2D/D2H)" : "CPU"});
    if (s.method == "bitshuffle_zstd") shf_zstd = s.mean_comp_wall_ms;
    if (s.method == "gfc") gfc = s.mean_comp_wall_ms;
    if (s.method == "mpc") mpc = s.mean_comp_wall_ms;
    if (s.method == "ndzip_cpu") ndzip_c = s.mean_comp_wall_ms;
    if (s.method == "ndzip_gpu") ndzip_g = s.mean_comp_wall_ms;
  }
  t.Print();

  std::printf("\nShape checks vs. paper (Table 6):\n");
  std::printf("  bitshuffle_zstd within ~one order of GFC/MPC end-to-end: "
              "%.2f ms vs %.2f / %.2f ms -> %s\n",
              shf_zstd, gfc, mpc,
              (shf_zstd < 12 * std::max(gfc, mpc)) ? "yes" : "NO");
  std::printf("  host-to-device copy erodes the GPU kernel advantage "
              "(ndzip CPU %.2f ms vs GPU %.2f ms; paper 282 vs 636).\n",
              ndzip_c, ndzip_g);
  std::printf("Takeaway: the H2D overhead is non-negligible; "
              "bitshuffle_zstd combines best average CR with competitive "
              "end-to-end time.\n");
}

int Main(int argc, char** argv) {
  const auto results = RunFullSweep(PaperMethods());
  const auto summaries = Summarize(results);

  RenderTable4(results, summaries);
  RenderFig5(results);
  RenderFig6(results);
  const bool ranked = RenderFig7(results, summaries);
  RenderTable5(summaries);
  RenderFig9(summaries);
  RenderTable6(summaries);

  const std::string json_path =
      JsonOutputPath(argc, argv, "BENCH_paper_sweep.json");
  if (json_path.empty()) return ranked ? 0 : 1;
  JsonReporter json;
  const double repeats = BenchRepeats();
  const double cores = std::thread::hardware_concurrency();
  for (const auto& r : results) {
    json.Add(r.method, r.dataset, r.cr, r.ct_gbps, r.dt_gbps,
             {{"ok", r.ok ? 1.0 : 0.0},
              {"comp_wall_ms", r.comp_wall_ms},
              {"decomp_wall_ms", r.decomp_wall_ms},
              {"dataset_bytes", static_cast<double>(r.orig_bytes)},
              {"repeats", repeats},
              {"cores", cores}});
  }
  return json.WriteToFile(json_path) && ranked ? 0 : 1;
}

}  // namespace
}  // namespace fcbench::bench

int main(int argc, char** argv) { return fcbench::bench::Main(argc, argv); }

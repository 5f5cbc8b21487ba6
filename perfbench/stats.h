#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <string>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile of raw samples: the smallest sample x such that
/// at least p percent of the samples are <= x (rank ceil(p/100 * n),
/// 1-based). Exact — no bucketing — so a 10% shift in the samples is a
/// 10% shift in the result. `p` in (0, 100]; NaN for an empty set.
double Percentile(std::vector<double> samples, double p);

/// Number of samples strictly beyond the nearest rank of `p` in a set of
/// `n`: n - ceil(p/100 * n).
size_t SamplesBeyond(size_t n, double p);

/// A timing as the benchmark reports it: the median, the highest
/// percentile of the ladder {99.9, 99, 95, 90, 75} that has at least
/// `kMinTail` samples beyond its rank, and the sample count.
struct Summary {
  static constexpr size_t kMinTail = 10;
  size_t n = 0;
  double p50 = 0;
  /// 0 when no ladder percentile has kMinTail samples beyond it.
  double tail_pct = 0;
  double tail = 0;

  /// True when percentile `p` has kMinTail samples beyond it at this n.
  bool Supports(double p) const { return SamplesBeyond(n, p) >= kMinTail; }
  /// "p50=1.23 p99=4.56 n=1200" (tail omitted when unsupported).
  std::string ToString() const;
};

Summary Summarize(const std::vector<double>& samples);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_

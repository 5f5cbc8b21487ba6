#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

namespace perfbench {

namespace {

/// 1-based nearest rank of percentile p among n samples, in [1, n].
size_t NearestRank(size_t n, double p) {
  // The epsilon keeps decimal percentiles exact: 99.9 / 100 * 1000 is
  // 999.0000000000001 in binary floating point, whose ceiling would skip
  // a rank.
  const double x = p / 100.0 * static_cast<double>(n);
  const double r = std::ceil(x - 1e-9 * std::max(1.0, x));
  return std::clamp<size_t>(static_cast<size_t>(r), 1, n);
}

}  // namespace

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return std::numeric_limits<double>::quiet_NaN();
  const size_t k = NearestRank(samples.size(), p) - 1;
  std::nth_element(samples.begin(), samples.begin() + k, samples.end());
  return samples[k];
}

size_t SamplesBeyond(size_t n, double p) {
  return n == 0 ? 0 : n - NearestRank(n, p);
}

Summary Summarize(const std::vector<double>& samples) {
  Summary s;
  s.n = samples.size();
  if (s.n == 0) return s;
  std::vector<double> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  s.p50 = sorted[NearestRank(s.n, 50) - 1];
  for (double p : {99.9, 99.0, 95.0, 90.0, 75.0}) {
    if (s.Supports(p)) {
      s.tail_pct = p;
      s.tail = sorted[NearestRank(s.n, p) - 1];
      break;
    }
  }
  return s;
}

std::string Summary::ToString() const {
  char buf[128];
  if (tail_pct > 0) {
    std::snprintf(buf, sizeof(buf), "p50=%.6g p%g=%.6g n=%zu", p50, tail_pct,
                  tail, n);
  } else {
    std::snprintf(buf, sizeof(buf), "p50=%.6g n=%zu (no tail)", p50, n);
  }
  return buf;
}

}  // namespace perfbench

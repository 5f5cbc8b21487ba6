// Unit test of the benchmark's exact-sample statistics. Exits non-zero on
// the first failed expectation; run it through ctest in the benchmark's
// build directory.

#include <cmath>
#include <cstdio>
#include <vector>

#include "stats.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAILED: %s\n", what);
    ++failures;
  }
}

std::vector<double> Iota(int n) {
  std::vector<double> v;
  // Reverse order: the helpers must not depend on pre-sorted input.
  for (int i = n; i >= 1; --i) v.push_back(i);
  return v;
}

}  // namespace

int main() {
  using perfbench::Percentile;
  using perfbench::SamplesBeyond;
  using perfbench::Summarize;

  // Nearest rank: p50 of 1..10 is the 5th sample, p99 of 1..100 the 99th.
  Expect(Percentile(Iota(10), 50) == 5, "p50 of 1..10 is 5");
  Expect(Percentile(Iota(10), 51) == 6, "p51 of 1..10 is 6");
  Expect(Percentile(Iota(100), 99) == 99, "p99 of 1..100 is 99");
  Expect(Percentile(Iota(1000), 99.9) == 999, "p99.9 of 1..1000 is 999");
  Expect(Percentile(Iota(3), 100) == 3, "p100 is the maximum");
  Expect(Percentile(Iota(3), 0.1) == 1, "a tiny p is the minimum");
  Expect(Percentile({7.5}, 99) == 7.5, "one sample is every percentile");
  Expect(std::isnan(Percentile({}, 50)), "empty set is NaN");

  // Exact values, not bucket bounds: a 10% shift shows as 10%.
  std::vector<double> base(1000, 100.0), shifted(1000, 110.0);
  Expect(Percentile(shifted, 50) / Percentile(base, 50) == 1.1,
         "a 10% shift moves p50 by exactly 10%");

  Expect(SamplesBeyond(1000, 99) == 10, "p99 of 1000 has 10 beyond");
  Expect(SamplesBeyond(999, 99) == 9, "p99 of 999 has 9 beyond");
  Expect(SamplesBeyond(0, 50) == 0, "empty set has nothing beyond");

  // The tail is the highest ladder percentile with >= 10 samples beyond.
  auto s = Summarize(Iota(1000));
  Expect(s.n == 1000 && s.p50 == 500, "summary n and p50");
  Expect(s.tail_pct == 99 && s.tail == 990, "n=1000 supports p99, not p99.9");
  Expect(s.Supports(99) && !s.Supports(99.9), "Supports agrees");
  s = Summarize(Iota(10000));
  Expect(s.tail_pct == 99.9 && s.tail == 9990, "n=10000 supports p99.9");
  s = Summarize(Iota(200));
  Expect(s.tail_pct == 95 && s.tail == 190, "n=200 supports p95");
  s = Summarize(Iota(40));
  Expect(s.tail_pct == 75 && s.tail == 30, "n=40 supports p75");
  s = Summarize(Iota(12));
  Expect(s.tail_pct == 0 && s.p50 == 6, "n=12 supports no tail");
  s = Summarize({});
  Expect(s.n == 0 && s.tail_pct == 0, "empty summary");

  if (failures == 0) std::printf("perfbench_stats_test: all passed\n");
  return failures == 0 ? 0 : 1;
}

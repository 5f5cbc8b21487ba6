#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>

#include <sys/resource.h>

namespace fcbench::obs {

namespace {

std::atomic<bool> g_enabled{true};

/// Stable small integer per thread; picks a counter cell without
/// hashing a thread::id on every Add.
uint32_t ThreadSlot() {
  static std::atomic<uint32_t> next{0};
  static thread_local const uint32_t slot =
      next.fetch_add(1, std::memory_order_relaxed);
  return slot;
}

/// FCBENCH_METRICS applied once before main touches any metric, the
/// same static-init idiom as failpoint's FCBENCH_FAILPOINTS.
const bool g_env_applied = [] {
  if (const char* env = std::getenv("FCBENCH_METRICS")) {
    if (std::strcmp(env, "0") == 0 || std::strcmp(env, "off") == 0 ||
        std::strcmp(env, "false") == 0) {
      g_enabled.store(false, std::memory_order_relaxed);
    }
  }
  return true;
}();

void AppendJsonEscaped(std::string* out, std::string_view s) {
  for (char c : s) {
    if (c == '"' || c == '\\') out->push_back('\\');
    out->push_back(c);
  }
}

/// `name` rewritten for Prometheus: dots become underscores
/// (`wal.commit_nanos` -> `fcbench_wal_commit_nanos`).
std::string PromName(const std::string& name) {
  std::string out = "fcbench_";
  for (char c : name) out.push_back(c == '.' ? '_' : c);
  return out;
}

}  // namespace

bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }

void SetEnabled(bool on) {
  g_enabled.store(on, std::memory_order_relaxed);
}

const char* UnitName(Unit unit) {
  switch (unit) {
    case Unit::kNanos:
      return "nanos";
    case Unit::kBytes:
      return "bytes";
    case Unit::kCount:
      return "count";
  }
  return "count";
}

void Counter::Add(uint64_t n) {
  if (!Enabled()) return;
  cells_[ThreadSlot() % kCells].v.fetch_add(n, std::memory_order_relaxed);
}

uint64_t Counter::value() const {
  uint64_t total = 0;
  for (const Cell& c : cells_) total += c.v.load(std::memory_order_relaxed);
  return total;
}

size_t Histogram::BucketOf(uint64_t v) {
  return static_cast<size_t>(std::bit_width(v));
}

uint64_t Histogram::BucketUpperBound(size_t b) {
  if (b == 0) return 0;
  if (b >= 64) return UINT64_MAX;
  return (uint64_t{1} << b) - 1;
}

void Gauge::Set(int64_t v) {
  if (!Enabled()) return;
  v_.store(v, std::memory_order_relaxed);
}

void Gauge::Add(int64_t d) {
  if (!Enabled()) return;
  v_.fetch_add(d, std::memory_order_relaxed);
}

void Histogram::Record(uint64_t v) {
  if (!Enabled()) return;
  buckets_[BucketOf(v)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
  uint64_t cur = max_.load(std::memory_order_relaxed);
  while (v > cur &&
         !max_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

HistogramSnapshot Histogram::SnapshotNow() const {
  HistogramSnapshot s;
  s.unit = unit_;
  s.count = count_.load(std::memory_order_relaxed);
  s.sum = sum_.load(std::memory_order_relaxed);
  s.max = max_.load(std::memory_order_relaxed);
  for (size_t b = 0; b < kBuckets; ++b) {
    s.buckets[b] = buckets_[b].load(std::memory_order_relaxed);
  }
  return s;
}

double HistogramSnapshot::Percentile(double p) const {
  // Rank over the bucket counts, not `count`: the two can disagree
  // transiently while writers are mid-Record.
  uint64_t total = 0;
  for (uint64_t b : buckets) total += b;
  if (total == 0) return 0;
  p = std::clamp(p, 0.0, 100.0);
  const double rank = p / 100.0 * static_cast<double>(total);
  uint64_t cum = 0;
  for (size_t b = 0; b < buckets.size(); ++b) {
    cum += buckets[b];
    if (static_cast<double>(cum) >= rank && cum > 0) {
      const uint64_t hi = Histogram::BucketUpperBound(b);
      // The true max is a tighter bound than the top occupied bucket's
      // upper edge.
      return static_cast<double>(std::min(hi, std::max(max, uint64_t{1})));
    }
  }
  return static_cast<double>(max);
}

void HistogramSnapshot::Merge(const HistogramSnapshot& other) {
  count += other.count;
  sum += other.sum;
  max = std::max(max, other.max);
  for (size_t b = 0; b < buckets.size(); ++b) buckets[b] += other.buckets[b];
}

HistogramSnapshot HistogramSnapshot::Delta(
    const HistogramSnapshot& earlier) const {
  HistogramSnapshot d;
  d.name = name;
  d.unit = unit;
  d.count = count - std::min(earlier.count, count);
  d.sum = sum - std::min(earlier.sum, sum);
  d.max = max;
  for (size_t b = 0; b < buckets.size(); ++b) {
    d.buckets[b] = buckets[b] - std::min(earlier.buckets[b], buckets[b]);
  }
  return d;
}

const CounterSnapshot* MetricsSnapshot::FindCounter(
    std::string_view name) const {
  for (const auto& c : counters) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

const GaugeSnapshot* MetricsSnapshot::FindGauge(std::string_view name) const {
  for (const auto& g : gauges) {
    if (g.name == name) return &g;
  }
  return nullptr;
}

const HistogramSnapshot* MetricsSnapshot::FindHistogram(
    std::string_view name) const {
  for (const auto& h : histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

std::string MetricsSnapshot::ToJson() const {
  std::string out = "{\n  \"counters\": {";
  for (size_t i = 0; i < counters.size(); ++i) {
    out += i ? ",\n    \"" : "\n    \"";
    AppendJsonEscaped(&out, counters[i].name);
    out += "\": " + std::to_string(counters[i].value);
  }
  out += counters.empty() ? "},\n" : "\n  },\n";
  out += "  \"gauges\": {";
  for (size_t i = 0; i < gauges.size(); ++i) {
    out += i ? ",\n    \"" : "\n    \"";
    AppendJsonEscaped(&out, gauges[i].name);
    out += "\": " + std::to_string(gauges[i].value);
  }
  out += gauges.empty() ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  for (size_t i = 0; i < histograms.size(); ++i) {
    const HistogramSnapshot& h = histograms[i];
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "{\"unit\": \"%s\", \"count\": %llu, \"sum\": %llu, "
                  "\"max\": %llu, \"mean\": %.1f, \"p50\": %.0f, "
                  "\"p90\": %.0f, \"p99\": %.0f}",
                  UnitName(h.unit),
                  static_cast<unsigned long long>(h.count),
                  static_cast<unsigned long long>(h.sum),
                  static_cast<unsigned long long>(h.max), h.mean(), h.p50(),
                  h.p90(), h.p99());
    out += i ? ",\n    \"" : "\n    \"";
    AppendJsonEscaped(&out, h.name);
    out += "\": ";
    out += buf;
  }
  out += histograms.empty() ? "}\n}\n" : "\n  }\n}\n";
  return out;
}

std::string MetricsSnapshot::ToPrometheus() const {
  std::string out;
  char buf[160];
  for (const auto& c : counters) {
    const std::string n = PromName(c.name);
    out += "# HELP " + n + " fcbench counter " + c.name + "\n";
    out += "# TYPE " + n + " counter\n";
    std::snprintf(buf, sizeof(buf), "%s %llu\n", n.c_str(),
                  static_cast<unsigned long long>(c.value));
    out += buf;
  }
  for (const auto& g : gauges) {
    const std::string n = PromName(g.name);
    out += "# HELP " + n + " fcbench gauge " + g.name + "\n";
    out += "# TYPE " + n + " gauge\n";
    std::snprintf(buf, sizeof(buf), "%s %lld\n", n.c_str(),
                  static_cast<long long>(g.value));
    out += buf;
  }
  for (const auto& h : histograms) {
    const std::string n = PromName(h.name);
    out += "# HELP " + n + " fcbench histogram " + h.name + " (" +
           std::string(UnitName(h.unit)) + ")\n";
    out += "# TYPE " + n + " histogram\n";
    // A contiguous cumulative chain from bucket 0 through the highest
    // occupied bucket: scrapers need each le series to be monotone over
    // time, and skipping empty buckets would make a bucket appear and
    // disappear across scrapes as samples land. The tail above the
    // observed max is summarized by +Inf.
    size_t highest = 0;
    for (size_t b = 0; b < h.buckets.size(); ++b) {
      if (h.buckets[b] != 0) highest = b;
    }
    uint64_t cum = 0;
    for (size_t b = 0; b <= highest; ++b) {
      cum += h.buckets[b];
      std::snprintf(buf, sizeof(buf), "%s_bucket{le=\"%llu\"} %llu\n",
                    n.c_str(),
                    static_cast<unsigned long long>(
                        Histogram::BucketUpperBound(b)),
                    static_cast<unsigned long long>(cum));
      out += buf;
    }
    std::snprintf(buf, sizeof(buf),
                  "%s_bucket{le=\"+Inf\"} %llu\n%s_sum %llu\n%s_count %llu\n",
                  n.c_str(), static_cast<unsigned long long>(cum), n.c_str(),
                  static_cast<unsigned long long>(h.sum), n.c_str(),
                  static_cast<unsigned long long>(h.count));
    out += buf;
  }
  return out;
}

std::string MetricsSnapshot::ToText() const {
  std::ostringstream os;
  os << "counters:\n";
  for (const auto& c : counters) {
    os << "  " << c.name << " = " << c.value << "\n";
  }
  os << "gauges:\n";
  for (const auto& g : gauges) {
    os << "  " << g.name << " = " << g.value << "\n";
  }
  os << "histograms (count / mean / p50 / p90 / p99 / max):\n";
  for (const auto& h : histograms) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%llu / %.0f / %.0f / %.0f / %.0f / %llu",
                  static_cast<unsigned long long>(h.count), h.mean(), h.p50(),
                  h.p90(), h.p99(), static_cast<unsigned long long>(h.max));
    os << "  " << h.name << " [" << UnitName(h.unit) << "] " << buf << "\n";
  }
  return os.str();
}

struct MetricsRegistry::Impl {
  mutable std::mutex mu;
  // std::map: stable iteration order gives deterministic exposition, and
  // unique_ptr keeps handed-out metric pointers stable across rehashing.
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms;
  /// Kind/unit conflicts and malformed names, for SelfCheck. The
  /// conflicting Get still returns a usable metric (parked here so the
  /// pointer stays valid) — hot paths never need a null check.
  std::vector<std::string> problems;
  std::vector<std::unique_ptr<Counter>> orphan_counters;
  std::vector<std::unique_ptr<Gauge>> orphan_gauges;
  std::vector<std::unique_ptr<Histogram>> orphan_histograms;

  bool NameTaken(std::string_view name, const char* kind) {
    const bool taken = counters.find(name) != counters.end() ||
                       gauges.find(name) != gauges.end() ||
                       histograms.find(name) != histograms.end();
    if (taken) {
      problems.push_back("metric '" + std::string(name) +
                         "' re-registered as a different kind (" + kind +
                         ")");
    }
    return taken;
  }
};

MetricsRegistry::MetricsRegistry() : impl_(new Impl()) {}

MetricsRegistry::~MetricsRegistry() { delete impl_; }

MetricsRegistry& MetricsRegistry::Global() {
  // Leaked: metric handles are cached in function-local statics all over
  // the tree and may be touched during static destruction.
  static MetricsRegistry* r = new MetricsRegistry();
  return *r;
}

bool MetricsRegistry::ValidName(std::string_view name) {
  if (name.empty() || name.size() > 128) return false;
  size_t dots = 0, seg_len = 0;
  for (char c : name) {
    if (c == '.') {
      if (seg_len == 0) return false;  // empty segment
      ++dots;
      seg_len = 0;
      continue;
    }
    const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                    c == '_';
    if (!ok) return false;
    ++seg_len;
  }
  return dots >= 1 && seg_len > 0;
}

Counter* MetricsRegistry::GetCounter(std::string_view name) {
  std::lock_guard<std::mutex> g(impl_->mu);
  if (auto it = impl_->counters.find(name); it != impl_->counters.end()) {
    return it->second.get();
  }
  if (!ValidName(name)) {
    impl_->problems.push_back("bad metric name '" + std::string(name) + "'");
  } else if (impl_->NameTaken(name, "counter")) {
    impl_->orphan_counters.push_back(std::make_unique<Counter>());
    return impl_->orphan_counters.back().get();
  }
  auto [it, ignored] =
      impl_->counters.emplace(std::string(name), std::make_unique<Counter>());
  return it->second.get();
}

Gauge* MetricsRegistry::GetGauge(std::string_view name) {
  std::lock_guard<std::mutex> g(impl_->mu);
  if (auto it = impl_->gauges.find(name); it != impl_->gauges.end()) {
    return it->second.get();
  }
  if (!ValidName(name)) {
    impl_->problems.push_back("bad metric name '" + std::string(name) + "'");
  } else if (impl_->NameTaken(name, "gauge")) {
    impl_->orphan_gauges.push_back(std::make_unique<Gauge>());
    return impl_->orphan_gauges.back().get();
  }
  auto [it, ignored] =
      impl_->gauges.emplace(std::string(name), std::make_unique<Gauge>());
  return it->second.get();
}

Histogram* MetricsRegistry::GetHistogram(std::string_view name, Unit unit) {
  std::lock_guard<std::mutex> g(impl_->mu);
  if (auto it = impl_->histograms.find(name);
      it != impl_->histograms.end()) {
    if (it->second->unit() != unit) {
      impl_->problems.push_back("histogram '" + std::string(name) +
                                "' re-registered with unit " +
                                UnitName(unit) + " (was " +
                                UnitName(it->second->unit()) + ")");
    }
    return it->second.get();
  }
  if (!ValidName(name)) {
    impl_->problems.push_back("bad metric name '" + std::string(name) + "'");
  } else if (impl_->NameTaken(name, "histogram")) {
    impl_->orphan_histograms.push_back(std::make_unique<Histogram>(unit));
    return impl_->orphan_histograms.back().get();
  }
  auto [it, ignored] = impl_->histograms.emplace(
      std::string(name), std::make_unique<Histogram>(unit));
  return it->second.get();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot s;
  std::lock_guard<std::mutex> g(impl_->mu);
  s.counters.reserve(impl_->counters.size());
  for (const auto& [name, c] : impl_->counters) {
    s.counters.push_back({name, c->value()});
  }
  s.gauges.reserve(impl_->gauges.size());
  for (const auto& [name, gauge] : impl_->gauges) {
    s.gauges.push_back({name, gauge->value()});
  }
  // The process's page faults, read from the kernel now: nothing counts
  // them on a hot path.
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) == 0) {
    const GaugeSnapshot faults[] = {{"process.major_faults", ru.ru_majflt},
                                    {"process.minor_faults", ru.ru_minflt}};
    for (const GaugeSnapshot& g : faults) {
      auto at = std::lower_bound(
          s.gauges.begin(), s.gauges.end(), g.name,
          [](const GaugeSnapshot& a, const std::string& n) {
            return a.name < n;
          });
      s.gauges.insert(at, g);
    }
  }
  s.histograms.reserve(impl_->histograms.size());
  for (const auto& [name, h] : impl_->histograms) {
    HistogramSnapshot hs = h->SnapshotNow();
    hs.name = name;
    s.histograms.push_back(std::move(hs));
  }
  return s;
}

Status MetricsRegistry::SelfCheck() const {
  std::lock_guard<std::mutex> g(impl_->mu);
  if (impl_->problems.empty()) return Status::OK();
  std::string msg = "metrics registry self-check failed:";
  for (const auto& p : impl_->problems) msg += "\n  " + p;
  return Status::InvalidArgument(msg);
}

}  // namespace fcbench::obs

#ifndef FCBENCH_OBS_METRICS_H_
#define FCBENCH_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace fcbench::obs {

/// Process-wide metrics for the storage and selection stack. The same
/// design discipline as util/failpoint: the hot path pays one relaxed
/// atomic load when collection is off and ~one relaxed atomic add when
/// it is on; everything heavier (registration, snapshots, exposition)
/// happens behind a mutex that hot paths never touch.
///
/// Collection is ON by default; FCBENCH_METRICS=0|off|false disables it
/// at startup, and SetEnabled() toggles it at runtime (the benches use
/// this to measure the enabled-vs-idle overhead).
bool Enabled();
void SetEnabled(bool on);

/// What a histogram's recorded values measure; drives exposition only.
enum class Unit : uint8_t { kNanos, kBytes, kCount };
const char* UnitName(Unit unit);

/// Monotonic counter, sharded across cache-line-padded cells so
/// concurrent writers from different threads do not bounce one line.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Add(uint64_t n = 1);
  void Increment() { Add(1); }
  /// Sum over cells; concurrent with writers (each cell read relaxed).
  uint64_t value() const;

 private:
  static constexpr size_t kCells = 8;
  struct alignas(64) Cell {
    std::atomic<uint64_t> v{0};
  };
  std::array<Cell, kCells> cells_;
};

/// Last-value gauge (occupancy, queue depth). Set/Add are single relaxed
/// atomic ops; negative values are allowed (Add(-1) on dequeue).
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(int64_t v);
  void Add(int64_t d);
  int64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> v_{0};
};

struct HistogramSnapshot;

/// Log2-bucketed histogram of non-negative integer samples (latencies in
/// nanoseconds, sizes in bytes). Bucket b holds values with
/// std::bit_width(v) == b: bucket 0 is exactly {0}, bucket b >= 1 covers
/// [2^(b-1), 2^b - 1]. Recording is a handful of relaxed atomic adds
/// (bucket, count, sum) plus a CAS max.
class Histogram {
 public:
  static constexpr size_t kBuckets = 65;  // bit_width of a u64 is 0..64

  explicit Histogram(Unit unit) : unit_(unit) {}
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  static size_t BucketOf(uint64_t v);
  /// Largest value bucket b can hold (0 for b == 0, else 2^b - 1,
  /// saturating at UINT64_MAX for the top bucket).
  static uint64_t BucketUpperBound(size_t b);

  void Record(uint64_t v);
  Unit unit() const { return unit_; }
  uint64_t count() const { return count_.load(std::memory_order_relaxed); }

  /// Point-in-time copy (name left empty; the registry fills it).
  HistogramSnapshot SnapshotNow() const;

 private:
  const Unit unit_;
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> max_{0};
  std::array<std::atomic<uint64_t>, kBuckets> buckets_{};
};

struct CounterSnapshot {
  std::string name;
  uint64_t value = 0;
};

struct GaugeSnapshot {
  std::string name;
  int64_t value = 0;
};

/// Plain-data copy of a histogram. Percentiles are bucket-resolution
/// estimates: the reported quantile is the upper bound of the bucket the
/// rank falls in (conservative for latencies). Snapshots merge and diff,
/// so benches can isolate one run's tail from process-lifetime totals.
struct HistogramSnapshot {
  std::string name;
  Unit unit = Unit::kCount;
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t max = 0;
  std::array<uint64_t, Histogram::kBuckets> buckets{};

  /// p in [0, 100]. Returns 0 on an empty snapshot.
  double Percentile(double p) const;
  double p50() const { return Percentile(50); }
  double p90() const { return Percentile(90); }
  double p99() const { return Percentile(99); }
  double mean() const {
    return count == 0 ? 0 : static_cast<double>(sum) / count;
  }

  /// Adds `other` into this (count/sum/buckets add, max takes max).
  void Merge(const HistogramSnapshot& other);
  /// This minus an `earlier` snapshot of the SAME histogram: what was
  /// recorded in between. max cannot be subtracted and is kept from
  /// `this` (an upper bound for the interval).
  HistogramSnapshot Delta(const HistogramSnapshot& earlier) const;
};

/// Stable point-in-time view of every registered metric, alphabetical by
/// name within each kind. The gauges also hold the process's page-fault
/// totals, `process.minor_faults` and `process.major_faults`
/// (getrusage(RUSAGE_SELF) at snapshot time).
struct MetricsSnapshot {
  std::vector<CounterSnapshot> counters;
  std::vector<GaugeSnapshot> gauges;
  std::vector<HistogramSnapshot> histograms;

  const CounterSnapshot* FindCounter(std::string_view name) const;
  const GaugeSnapshot* FindGauge(std::string_view name) const;
  const HistogramSnapshot* FindHistogram(std::string_view name) const;

  /// One JSON object: {"counters": {...}, "gauges": {...},
  /// "histograms": {name: {count, sum, max, mean, p50, p90, p99}}}.
  std::string ToJson() const;
  /// Prometheus text exposition format (counters/gauges as-is,
  /// histograms as cumulative `le` buckets + _sum/_count).
  std::string ToPrometheus() const;
  /// Human-readable table for the CLI.
  std::string ToText() const;
};

/// Named-metric registry. Get* registers on first use and returns a
/// pointer that stays valid for the registry's lifetime, so call sites
/// cache it in a function-local static and the steady-state cost is the
/// metric op alone. Names follow `seg.seg[.seg]` with segments of
/// [a-z0-9_]; re-registering a name as a different kind is a recorded
/// conflict (the call still returns a usable, unregistered metric) that
/// SelfCheck() reports — CI runs SelfCheck on the global registry.
class MetricsRegistry {
 public:
  MetricsRegistry();
  ~MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry (leaked singleton, same as
  /// ThreadPool::Shared, so metrics outlive static destructors).
  static MetricsRegistry& Global();

  Counter* GetCounter(std::string_view name);
  Gauge* GetGauge(std::string_view name);
  /// A histogram re-fetched with a different unit keeps its original
  /// unit (the first registration wins); that is also a conflict.
  Histogram* GetHistogram(std::string_view name, Unit unit);

  MetricsSnapshot Snapshot() const;

  /// OK when every registered name is well-formed and no name was
  /// requested as two different kinds (or two units).
  Status SelfCheck() const;

  static bool ValidName(std::string_view name);

 private:
  struct Impl;
  Impl* impl_;
};

}  // namespace fcbench::obs

#endif  // FCBENCH_OBS_METRICS_H_

// Tests for the observability subsystem (src/obs/): metric primitives
// under concurrency, histogram bucket math and snapshot algebra, the
// registry's conflict detection and self-check, the exposition formats,
// the SeqlockRing's wraparound and seqlock behavior (through the
// TraceCollector's lifecycle events and spans), span tracing, and the
// watchdog.

#include <gtest/gtest.h>

#include <sys/mman.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/span.h"

namespace fcbench::obs {
namespace {

// ---------------------------------------------------------------------------
// Counter
// ---------------------------------------------------------------------------

TEST(Counter, StartsAtZeroAndAdds) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Increment();
  c.Add(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Counter, ConcurrentIncrementsAreExact) {
  // Torture: sharded cells must never lose an increment, whatever the
  // interleaving. 8 threads x 100k.
  Counter c;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 100000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.Increment();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(Counter, SnapshotConcurrentWithWriters) {
  // value() must be safe (and monotone) while writers are mid-Add.
  Counter c;
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) c.Add(1);
    });
  }
  uint64_t prev = 0;
  for (int i = 0; i < 1000; ++i) {
    const uint64_t now = c.value();
    EXPECT_GE(now, prev);
    prev = now;
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : writers) t.join();
}

TEST(Counter, DisabledCollectionDropsAdds) {
  Counter c;
  SetEnabled(false);
  c.Add(100);
  SetEnabled(true);
  EXPECT_EQ(c.value(), 0u);
  c.Add(1);
  EXPECT_EQ(c.value(), 1u);
}

// ---------------------------------------------------------------------------
// Gauge
// ---------------------------------------------------------------------------

TEST(Gauge, SetAddAndNegativeValues) {
  Gauge g;
  EXPECT_EQ(g.value(), 0);
  g.Set(10);
  g.Add(-25);
  EXPECT_EQ(g.value(), -15);
}

// ---------------------------------------------------------------------------
// Histogram bucket math
// ---------------------------------------------------------------------------

TEST(Histogram, BucketBoundaries) {
  // bucket = bit_width(v): 0 -> 0, 1 -> 1, [2,3] -> 2, [4,7] -> 3, ...
  EXPECT_EQ(Histogram::BucketOf(0), 0u);
  EXPECT_EQ(Histogram::BucketOf(1), 1u);
  EXPECT_EQ(Histogram::BucketOf(2), 2u);
  EXPECT_EQ(Histogram::BucketOf(3), 2u);
  EXPECT_EQ(Histogram::BucketOf(4), 3u);
  EXPECT_EQ(Histogram::BucketOf(7), 3u);
  EXPECT_EQ(Histogram::BucketOf(8), 4u);
  EXPECT_EQ(Histogram::BucketOf(UINT64_MAX), 64u);

  EXPECT_EQ(Histogram::BucketUpperBound(0), 0u);
  EXPECT_EQ(Histogram::BucketUpperBound(1), 1u);
  EXPECT_EQ(Histogram::BucketUpperBound(2), 3u);
  EXPECT_EQ(Histogram::BucketUpperBound(3), 7u);
  EXPECT_EQ(Histogram::BucketUpperBound(64), UINT64_MAX);

  // Every value lands in the bucket whose range contains it.
  for (uint64_t v : {0ull, 1ull, 5ull, 1000ull, 123456789ull}) {
    const size_t b = Histogram::BucketOf(v);
    EXPECT_LE(v, Histogram::BucketUpperBound(b));
    if (b > 0) {
      EXPECT_GT(v, Histogram::BucketUpperBound(b - 1));
    }
  }
}

TEST(Histogram, RecordCountSumMaxPercentiles) {
  Histogram h(Unit::kNanos);
  for (uint64_t v = 1; v <= 1000; ++v) h.Record(v);
  EXPECT_EQ(h.count(), 1000u);
  HistogramSnapshot s = h.SnapshotNow();
  EXPECT_EQ(s.count, 1000u);
  EXPECT_EQ(s.sum, 1000u * 1001u / 2);
  EXPECT_EQ(s.max, 1000u);
  EXPECT_DOUBLE_EQ(s.mean(), 500.5);
  // Percentiles are bucket upper bounds: conservative (>= the true
  // value) and monotone in p.
  EXPECT_GE(s.p50(), 500.0);
  EXPECT_LE(s.p50(), 1023.0);
  EXPECT_LE(s.p50(), s.p90());
  EXPECT_LE(s.p90(), s.p99());
  EXPECT_LE(s.p99(), static_cast<double>(s.max));
}

TEST(Histogram, PercentileOfEmptyIsZero) {
  Histogram h(Unit::kBytes);
  EXPECT_EQ(h.SnapshotNow().Percentile(99), 0.0);
}

TEST(Histogram, PercentileClampedByObservedMax) {
  // A single sample of 5 sits in bucket [4,7]; the reported p99 must be
  // the observed max (5), not the bucket edge (7).
  Histogram h(Unit::kNanos);
  h.Record(5);
  EXPECT_DOUBLE_EQ(h.SnapshotNow().p99(), 5.0);
}

TEST(Histogram, MergeAddsAndDeltaSubtracts) {
  Histogram h(Unit::kBytes);
  h.Record(10);
  h.Record(100);
  HistogramSnapshot early = h.SnapshotNow();
  h.Record(1000);
  h.Record(10000);
  HistogramSnapshot late = h.SnapshotNow();

  HistogramSnapshot delta = late.Delta(early);
  EXPECT_EQ(delta.count, 2u);
  EXPECT_EQ(delta.sum, 11000u);
  // The two new samples live in buckets bit_width(1000)=10 and
  // bit_width(10000)=14.
  EXPECT_EQ(delta.buckets[10], 1u);
  EXPECT_EQ(delta.buckets[14], 1u);
  EXPECT_EQ(delta.buckets[4], 0u);  // 10's bucket subtracted away

  HistogramSnapshot merged = early;
  merged.Merge(delta);
  EXPECT_EQ(merged.count, late.count);
  EXPECT_EQ(merged.sum, late.sum);
  for (size_t b = 0; b < merged.buckets.size(); ++b) {
    EXPECT_EQ(merged.buckets[b], late.buckets[b]) << "bucket " << b;
  }
}

TEST(Histogram, ConcurrentRecordWithSnapshots) {
  // Writers record while a reader snapshots; every snapshot must be
  // internally sane and the final tallies exact.
  Histogram h(Unit::kNanos);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 50000;
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&h] {
      for (int i = 1; i <= kPerThread; ++i) {
        h.Record(static_cast<uint64_t>(i));
      }
    });
  }
  for (int i = 0; i < 200; ++i) {
    HistogramSnapshot s = h.SnapshotNow();
    EXPECT_LE(s.max, static_cast<uint64_t>(kPerThread));
    EXPECT_GE(s.Percentile(100), 0.0);
  }
  for (auto& t : writers) t.join();
  HistogramSnapshot s = h.SnapshotNow();
  EXPECT_EQ(s.count, static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(s.max, static_cast<uint64_t>(kPerThread));
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

TEST(MetricsRegistry, SameNameReturnsSamePointer) {
  MetricsRegistry reg;
  Counter* a = reg.GetCounter("test.counter");
  Counter* b = reg.GetCounter("test.counter");
  EXPECT_EQ(a, b);
  EXPECT_TRUE(reg.SelfCheck().ok());
}

TEST(MetricsRegistry, ValidNameGrammar) {
  EXPECT_TRUE(MetricsRegistry::ValidName("wal.commit_nanos"));
  EXPECT_TRUE(MetricsRegistry::ValidName("a.b.c_9"));
  EXPECT_FALSE(MetricsRegistry::ValidName(""));
  EXPECT_FALSE(MetricsRegistry::ValidName("nodots"));
  EXPECT_FALSE(MetricsRegistry::ValidName("Upper.case"));
  EXPECT_FALSE(MetricsRegistry::ValidName("tra-iling.dash"));
  EXPECT_FALSE(MetricsRegistry::ValidName(".leading.dot"));
  EXPECT_FALSE(MetricsRegistry::ValidName("trailing.dot."));
  EXPECT_FALSE(MetricsRegistry::ValidName("dou..ble"));
  EXPECT_FALSE(MetricsRegistry::ValidName(std::string(200, 'a') + ".b"));
}

TEST(MetricsRegistry, KindConflictIsRecordedButUsable) {
  MetricsRegistry reg;
  Counter* c = reg.GetCounter("test.conflicted");
  Gauge* g = reg.GetGauge("test.conflicted");  // same name, other kind
  ASSERT_NE(c, nullptr);
  ASSERT_NE(g, nullptr);  // orphan metric: still safe to write through
  g->Set(7);
  const Status st = reg.SelfCheck();
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("test.conflicted"), std::string::npos);
  // The conflicting gauge is NOT in snapshots (it was never registered).
  EXPECT_EQ(reg.Snapshot().FindGauge("test.conflicted"), nullptr);
}

TEST(MetricsRegistry, HistogramUnitConflictIsRecorded) {
  MetricsRegistry reg;
  Histogram* a = reg.GetHistogram("test.hist", Unit::kNanos);
  Histogram* b = reg.GetHistogram("test.hist", Unit::kBytes);
  EXPECT_EQ(a, b);  // first registration wins, same pointer
  EXPECT_EQ(b->unit(), Unit::kNanos);
  EXPECT_FALSE(reg.SelfCheck().ok());
}

TEST(MetricsRegistry, BadNameIsRecorded) {
  MetricsRegistry reg;
  Counter* c = reg.GetCounter("Bad Name!");
  ASSERT_NE(c, nullptr);
  c->Increment();  // still usable
  EXPECT_FALSE(reg.SelfCheck().ok());
}

TEST(MetricsRegistry, GlobalSelfCheckPasses) {
  // The naming-convention / duplicate-registration assertion the unit
  // lane runs: every call site in the tree must register well-formed,
  // kind-consistent names. Touch a few real ones first.
  MetricsRegistry::Global().GetCounter("wal.commits")->Add(0);
  MetricsRegistry::Global()
      .GetHistogram("lsm.append_nanos", Unit::kNanos)
      ->Record(0);
  EXPECT_TRUE(MetricsRegistry::Global().SelfCheck().ok())
      << MetricsRegistry::Global().SelfCheck().message();
}

TEST(MetricsRegistry, SnapshotIsAlphabeticalAndComplete) {
  MetricsRegistry reg;
  reg.GetCounter("test.b")->Add(2);
  reg.GetCounter("test.a")->Add(1);
  reg.GetGauge("test.g")->Set(-3);
  reg.GetHistogram("test.h", Unit::kBytes)->Record(512);
  MetricsSnapshot s = reg.Snapshot();
  ASSERT_EQ(s.counters.size(), 2u);
  EXPECT_EQ(s.counters[0].name, "test.a");
  EXPECT_EQ(s.counters[1].name, "test.b");
  ASSERT_NE(s.FindCounter("test.b"), nullptr);
  EXPECT_EQ(s.FindCounter("test.b")->value, 2u);
  ASSERT_NE(s.FindGauge("test.g"), nullptr);
  EXPECT_EQ(s.FindGauge("test.g")->value, -3);
  ASSERT_NE(s.FindHistogram("test.h"), nullptr);
  EXPECT_EQ(s.FindHistogram("test.h")->count, 1u);
}

TEST(MetricsRegistry, SnapshotReportsProcessPageFaults) {
  // Touching every page of a fresh 4 MiB mapping faults each one in.
  MetricsRegistry reg;
  const MetricsSnapshot before = reg.Snapshot();
  ASSERT_NE(before.FindGauge("process.minor_faults"), nullptr);
  ASSERT_NE(before.FindGauge("process.major_faults"), nullptr);
  constexpr size_t kBytes = size_t{4} << 20;
  void* region = ::mmap(nullptr, kBytes, PROT_READ | PROT_WRITE,
                        MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  ASSERT_NE(region, MAP_FAILED);
  volatile char* touch = static_cast<char*>(region);
  for (size_t i = 0; i < kBytes; i += 4096) touch[i] = 1;
  const MetricsSnapshot after = reg.Snapshot();
  ::munmap(region, kBytes);
  EXPECT_GE(after.FindGauge("process.minor_faults")->value -
                before.FindGauge("process.minor_faults")->value,
            512);
  // Still alphabetical with the registered gauges around them.
  reg.GetGauge("test.g")->Set(1);
  reg.GetGauge("a.g")->Set(1);
  const MetricsSnapshot s = reg.Snapshot();
  EXPECT_TRUE(std::is_sorted(
      s.gauges.begin(), s.gauges.end(),
      [](const GaugeSnapshot& a, const GaugeSnapshot& b) {
        return a.name < b.name;
      }));
}

TEST(MetricsRegistry, ConcurrentGetAndSnapshot) {
  // Registration, writes and snapshots race; pointers must stay stable
  // and nothing may crash or deadlock.
  MetricsRegistry reg;
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&reg, t] {
      const std::string name = "test.c" + std::to_string(t % 2);
      for (int i = 0; i < 20000; ++i) reg.GetCounter(name)->Increment();
    });
  }
  threads.emplace_back([&reg, &stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      (void)reg.Snapshot();
    }
  });
  for (size_t t = 0; t + 1 < threads.size(); ++t) threads[t].join();
  stop.store(true, std::memory_order_relaxed);
  threads.back().join();
  MetricsSnapshot s = reg.Snapshot();
  uint64_t total = 0;
  for (const auto& c : s.counters) total += c.value;
  EXPECT_EQ(total, 4u * 20000u);
}

// ---------------------------------------------------------------------------
// Exposition formats
// ---------------------------------------------------------------------------

TEST(Exposition, JsonContainsAllKindsAndEscapes) {
  MetricsRegistry reg;
  reg.GetCounter("test.requests")->Add(3);
  reg.GetGauge("test.depth")->Set(5);
  reg.GetHistogram("test.lat", Unit::kNanos)->Record(100);
  const std::string json = reg.Snapshot().ToJson();
  EXPECT_NE(json.find("\"test.requests\": 3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"test.depth\": 5"), std::string::npos) << json;
  EXPECT_NE(json.find("\"test.lat\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"unit\": \"nanos\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"count\": 1"), std::string::npos) << json;
}

TEST(Exposition, PrometheusFormat) {
  MetricsRegistry reg;
  reg.GetCounter("test.requests")->Add(3);
  reg.GetGauge("test.depth")->Set(-2);
  Histogram* h = reg.GetHistogram("test.lat", Unit::kNanos);
  h->Record(5);   // bucket le=7
  h->Record(100); // bucket le=127
  const std::string prom = reg.Snapshot().ToPrometheus();
  EXPECT_NE(prom.find("# TYPE fcbench_test_requests counter"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("fcbench_test_requests 3"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE fcbench_test_depth gauge"), std::string::npos);
  EXPECT_NE(prom.find("fcbench_test_depth -2"), std::string::npos);
  // Cumulative buckets: le="7" holds 1, le="127" holds 2, +Inf holds 2.
  EXPECT_NE(prom.find("fcbench_test_lat_bucket{le=\"7\"} 1"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("fcbench_test_lat_bucket{le=\"127\"} 2"),
            std::string::npos);
  EXPECT_NE(prom.find("fcbench_test_lat_bucket{le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(prom.find("fcbench_test_lat_sum 105"), std::string::npos);
  EXPECT_NE(prom.find("fcbench_test_lat_count 2"), std::string::npos);
}

TEST(Exposition, TextSmoke) {
  MetricsRegistry reg;
  reg.GetCounter("test.requests")->Add(1);
  const std::string text = reg.Snapshot().ToText();
  EXPECT_NE(text.find("test.requests = 1"), std::string::npos) << text;
}

// ---------------------------------------------------------------------------
// Lifecycle events: zero-duration records in the TraceCollector
// ---------------------------------------------------------------------------

TEST(Event, RecordsInOrderWithPayload) {
  TraceCollector coll(64);
  coll.RecordEvent("flush-start", "dir-a", 1, 100);
  coll.RecordEvent("flush-publish", "dir-a", 1, 42);
  EXPECT_EQ(coll.recorded(), 2u);
  std::vector<SpanRecord> events = coll.Snapshot();
  ASSERT_EQ(events.size(), 2u);  // publish order
  EXPECT_STREQ(events[0].name, "flush-start");
  EXPECT_EQ(events[0].span_id, 0u);
  EXPECT_EQ(events[0].dur_nanos, 0u);
  EXPECT_EQ(events[0].tid, 0u);
  EXPECT_EQ(events[0].a, 1u);
  EXPECT_EQ(events[0].b, 100u);
  EXPECT_STREQ(events[0].tag, "dir-a");
  EXPECT_STREQ(events[1].name, "flush-publish");
  EXPECT_EQ(events[1].b, 42u);
  EXPECT_LE(events[0].start_nanos, events[1].start_nanos);
}

TEST(Event, WraparoundKeepsOnlyTheTail) {
  TraceCollector coll(64);  // minimum capacity
  ASSERT_EQ(coll.capacity(), 64u);
  for (uint64_t i = 1; i <= 80; ++i) {
    coll.RecordEvent("compact", "d", i, 0);
  }
  EXPECT_EQ(coll.recorded(), 80u);
  std::vector<SpanRecord> events = coll.Snapshot();
  ASSERT_EQ(events.size(), 64u);
  // The retained window is exactly the last capacity() events, in order.
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].a, 17 + i);
  }
}

TEST(Event, DetailIsTruncatedNotOverflowed) {
  TraceCollector coll(64);
  const std::string longdetail(200, 'x');
  coll.RecordEvent("degraded", longdetail, 0, 0);
  std::vector<SpanRecord> events = coll.Snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(std::string(events[0].tag),
            std::string(sizeof(SpanRecord{}.tag) - 1, 'x'));
}

TEST(Event, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(TraceCollector(1).capacity(), 64u);
  EXPECT_EQ(TraceCollector(65).capacity(), 128u);
  EXPECT_EQ(TraceCollector(1024).capacity(), 1024u);
}

TEST(SeqlockRing, CapacityIsClampedToTheCap) {
  // FCBENCH_TRACE_CAP reaches the ring unchecked: a huge value must
  // neither hit std::bit_ceil's undefined range nor allocate without
  // bound. One-word records keep the clamped ring small.
  using Ring = SeqlockRing<uint64_t>;
  EXPECT_EQ(Ring::kMaxCapacity, size_t{1} << 20);
  EXPECT_EQ(Ring(Ring::kMaxCapacity, 8).capacity(), Ring::kMaxCapacity);
  EXPECT_EQ(Ring(SIZE_MAX, 8).capacity(), Ring::kMaxCapacity);
  EXPECT_EQ(Ring((size_t{1} << 63) + 1, 8).capacity(), Ring::kMaxCapacity);
}

TEST(Event, DumpRendersTheTail) {
  TraceCollector coll(64);
  coll.RecordEvent("wal-rotate", "shard-3", 7, 0);
  coll.RecordEvent("degraded", "shard-3", 0, 0);
  // A span published after the events is not part of the event tail.
  SpanRecord span;
  span.trace_id = 1;
  span.span_id = 5;
  std::snprintf(span.name, sizeof(span.name), "test.span");
  coll.PublishBatch(&span, 1);
  const std::string dump = coll.DumpEvents(/*max_events=*/1);
  EXPECT_EQ(dump.find("wal-rotate"), std::string::npos) << dump;
  EXPECT_NE(dump.find("degraded"), std::string::npos) << dump;
  EXPECT_NE(dump.find("shard-3"), std::string::npos) << dump;
  EXPECT_EQ(dump.find("test.span"), std::string::npos) << dump;
}

TEST(Event, ConcurrentRecordNeverTearsAnEvent) {
  // Many writers lapping a small ring while a reader snapshots: every
  // event a snapshot returns must be internally consistent (the seqlock
  // stamps filter torn slots).
  TraceCollector coll(64);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 25000;
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      for (const SpanRecord& e : coll.Snapshot()) {
        // Writer t records a = t, b = t * 1000000 + i, detail = "w<t>".
        const uint64_t t = e.a;
        ASSERT_LT(t, static_cast<uint64_t>(kThreads));
        ASSERT_EQ(e.b / 1000000, t);
        std::string want("w");
        want += std::to_string(t);
        ASSERT_EQ(std::string(e.tag), want);
      }
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&coll, t] {
      std::string detail("w");
      detail += std::to_string(t);
      for (int i = 0; i < kPerThread; ++i) {
        coll.RecordEvent("retry-backoff", detail, static_cast<uint64_t>(t),
                         static_cast<uint64_t>(t) * 1000000 + i);
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();
  EXPECT_EQ(coll.recorded(), static_cast<uint64_t>(kThreads) * kPerThread);
}

// ---------------------------------------------------------------------------
// Span tracing
// ---------------------------------------------------------------------------

/// Restores the disabled-tracing default however the test exits.
struct SamplingGuard {
  ~SamplingGuard() {
    SetTraceSampling(0);
    SetSlowOpThresholdMs(0);
  }
};

/// The global collector's records published after `mark` tickets.
/// Snapshot is oldest-first; keep the newest (recorded - mark) entries.
std::vector<SpanRecord> RecordsAfter(uint64_t mark) {
  const std::vector<SpanRecord> all = TraceCollector::Global().Snapshot();
  const uint64_t want = TraceCollector::Global().recorded() - mark;
  const size_t n = std::min<size_t>(all.size(), static_cast<size_t>(want));
  return std::vector<SpanRecord>(all.end() - static_cast<long>(n),
                                 all.end());
}

const SpanRecord* FindByName(const std::vector<SpanRecord>& recs,
                             const char* name) {
  for (const auto& r : recs) {
    if (std::string(r.name) == name) return &r;
  }
  return nullptr;
}

TEST(Span, DisabledSpansCostNothingAndRecordNothing) {
  SamplingGuard guard;
  SetTraceSampling(0);
  EXPECT_FALSE(TracingActive());
  const uint64_t before = TraceCollector::Global().recorded();
  {
    ScopedSpan s("test.noop", 1, 2);
    EXPECT_FALSE(s.recording());
  }
  EXPECT_EQ(TraceCollector::Global().recorded(), before);
  // A slow-op threshold alone turns tracking on (the slow-op log needs
  // the stack), but publishing stays gated on sampling.
  SetSlowOpThresholdMs(60000);
  EXPECT_TRUE(TracingActive());
  {
    ScopedSpan s("test.noop2");
  }
  EXPECT_EQ(TraceCollector::Global().recorded(), before);
}

TEST(Span, NestedSpansRecordParentChainAndContainment) {
  SamplingGuard guard;
  SetTraceSampling(1, 1);  // sample every root
  const uint64_t mark = TraceCollector::Global().recorded();
  {
    ScopedSpan outer("test.outer", 7);
    {
      ScopedSpan mid("test.mid");
      mid.SetArgs(11, 13);
      mid.SetTag("mid-tag");
      {
        ScopedSpan leaf("test.leaf");
        EXPECT_TRUE(leaf.recording());
      }
    }
  }
  const std::vector<SpanRecord> recs = RecordsAfter(mark);
  ASSERT_EQ(recs.size(), 3u);
  const SpanRecord* outer = FindByName(recs, "test.outer");
  const SpanRecord* mid = FindByName(recs, "test.mid");
  const SpanRecord* leaf = FindByName(recs, "test.leaf");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(mid, nullptr);
  ASSERT_NE(leaf, nullptr);

  // One trace, ids chained root -> mid -> leaf.
  EXPECT_NE(outer->trace_id, 0u);
  EXPECT_EQ(mid->trace_id, outer->trace_id);
  EXPECT_EQ(leaf->trace_id, outer->trace_id);
  EXPECT_EQ(outer->parent_id, 0u);
  EXPECT_EQ(mid->parent_id, outer->span_id);
  EXPECT_EQ(leaf->parent_id, mid->span_id);
  EXPECT_EQ(outer->tid, mid->tid);

  // Args and tag travel.
  EXPECT_EQ(outer->a, 7u);
  EXPECT_EQ(mid->a, 11u);
  EXPECT_EQ(mid->b, 13u);
  EXPECT_EQ(std::string(mid->tag), "mid-tag");

  // Strict time containment: each child starts no earlier and ends no
  // later than its parent.
  EXPECT_GE(mid->start_nanos, outer->start_nanos);
  EXPECT_LE(mid->start_nanos + mid->dur_nanos,
            outer->start_nanos + outer->dur_nanos);
  EXPECT_GE(leaf->start_nanos, mid->start_nanos);
  EXPECT_LE(leaf->start_nanos + leaf->dur_nanos,
            mid->start_nanos + mid->dur_nanos);
}

TEST(Span, SamplingIsDeterministicAndExact) {
  SamplingGuard guard;
  SetTraceSampling(4, 42);
  // Over any window of k*N root spans exactly k are sampled — the
  // decision is (root_count % N == phase), not a coin flip — so two
  // identical windows record identical counts at identical positions.
  auto run_window = [] {
    std::vector<uint64_t> sampled_args;
    for (uint64_t i = 0; i < 100; ++i) {
      ScopedSpan root("test.det", i);
      if (root.recording()) sampled_args.push_back(i);
    }
    return sampled_args;
  };
  const std::vector<uint64_t> a = run_window();
  const std::vector<uint64_t> b = run_window();
  EXPECT_EQ(a.size(), 25u);
  EXPECT_EQ(b.size(), 25u);
  EXPECT_EQ(a, b) << "same thread, same window: same sampled positions";
  for (size_t i = 1; i < a.size(); ++i) {
    EXPECT_EQ(a[i] - a[i - 1], 4u) << "every 4th root, exactly";
  }
}

TEST(Span, CollectorCapsMemoryAndCountsDrops) {
  TraceCollector coll(100);  // rounds up to 128 slots
  EXPECT_EQ(coll.capacity(), 128u);
  std::vector<SpanRecord> batch(30);
  for (uint64_t i = 0; i < 300; ++i) {
    SpanRecord& r = batch[i % batch.size()];
    r.trace_id = 1;
    r.span_id = i + 1;
    r.start_nanos = i * 1000;
    r.dur_nanos = 100;
    std::snprintf(r.name, sizeof(r.name), "span-%llu",
                  static_cast<unsigned long long>(i));
    if (i % batch.size() == batch.size() - 1) {
      coll.PublishBatch(batch.data(), batch.size());
    }
  }
  EXPECT_EQ(coll.recorded(), 300u);
  EXPECT_EQ(coll.dropped(), 300u - 128u);
  std::vector<SpanRecord> snap = coll.Snapshot();
  EXPECT_EQ(snap.size(), 128u);
  // The ring keeps the newest spans: ids 173..300.
  EXPECT_EQ(snap.front().span_id, 173u);
  EXPECT_EQ(snap.back().span_id, 300u);

  // One batch larger than the whole ring laps it within a single ticket
  // reservation: exactly its newest capacity() records survive.
  std::vector<SpanRecord> big(300);
  for (size_t i = 0; i < big.size(); ++i) {
    big[i].trace_id = 2;
    big[i].span_id = 301 + i;
  }
  coll.PublishBatch(big.data(), big.size());
  EXPECT_EQ(coll.recorded(), 600u);
  EXPECT_EQ(coll.dropped(), 600u - 128u);
  snap = coll.Snapshot();
  ASSERT_EQ(snap.size(), 128u);
  for (size_t i = 0; i < snap.size(); ++i) {
    EXPECT_EQ(snap[i].span_id, 473u + i);
    EXPECT_EQ(snap[i].trace_id, 2u);
  }
}

/// Minimal JSON syntax validator: enough to prove ToChromeJson emits a
/// parseable document (balanced structure, quoted strings, no trailing
/// commas), without a JSON library dependency.
bool ValidJson(const std::string& s, size_t* pos);

bool SkipWs(const std::string& s, size_t* pos) {
  while (*pos < s.size() &&
         (s[*pos] == ' ' || s[*pos] == '\n' || s[*pos] == '\t' ||
          s[*pos] == '\r')) {
    ++*pos;
  }
  return *pos < s.size();
}

bool ValidString(const std::string& s, size_t* pos) {
  if (s[*pos] != '"') return false;
  ++*pos;
  while (*pos < s.size() && s[*pos] != '"') {
    if (s[*pos] == '\\') ++*pos;
    ++*pos;
  }
  if (*pos >= s.size()) return false;
  ++*pos;  // closing quote
  return true;
}

bool ValidNumber(const std::string& s, size_t* pos) {
  const size_t start = *pos;
  if (*pos < s.size() && (s[*pos] == '-' || s[*pos] == '+')) ++*pos;
  while (*pos < s.size() &&
         (std::isdigit(static_cast<unsigned char>(s[*pos])) ||
          s[*pos] == '.' || s[*pos] == 'e' || s[*pos] == 'E' ||
          s[*pos] == '-' || s[*pos] == '+')) {
    ++*pos;
  }
  return *pos > start;
}

bool ValidJson(const std::string& s, size_t* pos) {
  if (!SkipWs(s, pos)) return false;
  const char c = s[*pos];
  if (c == '{') {
    ++*pos;
    if (!SkipWs(s, pos)) return false;
    if (s[*pos] == '}') {
      ++*pos;
      return true;
    }
    while (true) {
      if (!SkipWs(s, pos) || !ValidString(s, pos)) return false;
      if (!SkipWs(s, pos) || s[*pos] != ':') return false;
      ++*pos;
      if (!ValidJson(s, pos)) return false;
      if (!SkipWs(s, pos)) return false;
      if (s[*pos] == ',') {
        ++*pos;
        continue;
      }
      if (s[*pos] == '}') {
        ++*pos;
        return true;
      }
      return false;
    }
  }
  if (c == '[') {
    ++*pos;
    if (!SkipWs(s, pos)) return false;
    if (s[*pos] == ']') {
      ++*pos;
      return true;
    }
    while (true) {
      if (!ValidJson(s, pos)) return false;
      if (!SkipWs(s, pos)) return false;
      if (s[*pos] == ',') {
        ++*pos;
        continue;
      }
      if (s[*pos] == ']') {
        ++*pos;
        return true;
      }
      return false;
    }
  }
  if (c == '"') return ValidString(s, pos);
  if (s.compare(*pos, 4, "true") == 0) {
    *pos += 4;
    return true;
  }
  if (s.compare(*pos, 5, "false") == 0) {
    *pos += 5;
    return true;
  }
  if (s.compare(*pos, 4, "null") == 0) {
    *pos += 4;
    return true;
  }
  return ValidNumber(s, pos);
}

TEST(Span, ChromeJsonIsWellFormedAndPreservesNesting) {
  TraceCollector coll(64);
  // A hand-built two-thread trace: on tid 1, parent [1000, 9000] with
  // child [2000, 5000]; on tid 2 an unrelated root.
  SpanRecord parent;
  parent.trace_id = 0xabc;
  parent.span_id = 10;
  parent.start_nanos = 1000;
  parent.dur_nanos = 8000;
  parent.tid = 1;
  std::snprintf(parent.name, sizeof(parent.name), "outer");
  SpanRecord child = parent;
  child.span_id = 11;
  child.parent_id = 10;
  child.start_nanos = 2000;
  child.dur_nanos = 3000;
  std::snprintf(child.name, sizeof(child.name), "inner");
  std::snprintf(child.tag, sizeof(child.tag), "t\"ag\\");  // needs escaping
  SpanRecord other;
  other.trace_id = 0xdef;
  other.span_id = 12;
  other.start_nanos = 500;
  other.dur_nanos = 100;
  other.tid = 2;
  std::snprintf(other.name, sizeof(other.name), "solo");
  const SpanRecord recs[] = {child, parent, other};
  coll.PublishBatch(recs, 3);
  EXPECT_EQ(coll.ToChromeJson().find("\"ph\":\"i\""), std::string::npos);
  // Lifecycle events join the same timeline as instant events.
  coll.RecordEvent("retry-backoff", "shard\"0", 1, 2);
  const std::string json = coll.ToChromeJson();
  size_t pos = 0;
  EXPECT_TRUE(ValidJson(json, &pos)) << json;
  SkipWs(json, &pos);
  EXPECT_EQ(pos, json.size()) << "trailing garbage after the document";

  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"outer\""), std::string::npos);
  EXPECT_NE(json.find("\"inner\""), std::string::npos);
  EXPECT_NE(json.find("\"solo\""), std::string::npos);

  // Nesting survives the nanos -> microseconds conversion: extract each
  // event's ts/dur (µs doubles) and check the child interval is still
  // strictly inside the parent's.
  auto event_field = [&](const char* name, const char* field) -> double {
    const size_t at = json.find("\"" + std::string(name) + "\"");
    EXPECT_NE(at, std::string::npos);
    const size_t f = json.find("\"" + std::string(field) + "\":", at);
    EXPECT_NE(f, std::string::npos);
    return std::atof(json.c_str() + f + std::strlen(field) + 3);
  };
  const double pts = event_field("outer", "ts");
  const double pdur = event_field("outer", "dur");
  const double cts = event_field("inner", "ts");
  const double cdur = event_field("inner", "dur");
  EXPECT_GE(cts, pts);
  EXPECT_LE(cts + cdur, pts + pdur);
  // Cross-thread causality args: the child names its parent span id.
  const size_t inner_at = json.find("\"inner\"");
  const size_t parent_arg = json.find("\"parent\":\"a\"", inner_at);
  EXPECT_NE(parent_arg, std::string::npos) << "parent id 10 = hex a";
  // The event: an instant on the span epoch, detail escaped.
  const size_t ev_at = json.find("\"retry-backoff\"");
  ASSERT_NE(ev_at, std::string::npos) << json;
  EXPECT_NE(json.find("\"ph\":\"i\"", ev_at), std::string::npos);
  EXPECT_NE(json.find("shard\\\"0", ev_at), std::string::npos);
  const size_t ts_at = json.find("\"ts\":", ev_at);
  ASSERT_NE(ts_at, std::string::npos);
  EXPECT_NEAR(std::atof(json.c_str() + ts_at + 5),
              static_cast<double>(coll.Snapshot().back().start_nanos) / 1e3,
              1e-3);
}

TEST(Span, ContextPropagatesAcrossThreads) {
  SamplingGuard guard;
  SetTraceSampling(1, 1);
  const uint64_t mark = TraceCollector::Global().recorded();
  TraceContext captured;
  {
    ScopedSpan root("test.ctx.root");
    captured = CurrentTraceContext();
    EXPECT_NE(captured.trace_id, 0u);
    std::thread worker([captured] {
      ScopedTraceContext adopt(captured);
      ScopedSpan child("test.ctx.child");
    });
    worker.join();
  }
  const std::vector<SpanRecord> recs = RecordsAfter(mark);
  const SpanRecord* root = FindByName(recs, "test.ctx.root");
  const SpanRecord* child = FindByName(recs, "test.ctx.child");
  ASSERT_NE(root, nullptr);
  ASSERT_NE(child, nullptr);
  EXPECT_EQ(child->trace_id, root->trace_id);
  EXPECT_EQ(child->parent_id, root->span_id);
  EXPECT_NE(child->tid, root->tid) << "recorded on the worker's track";
}

TEST(Span, EventInsideASampledSpanCarriesItsTraceId) {
  SamplingGuard guard;
  SetTraceSampling(1, 1);
  const uint64_t mark = TraceCollector::Global().recorded();
  {
    ScopedSpan root("test.ev.root");
    ASSERT_TRUE(root.recording());
    RecordEvent("test-inside", "dir-ev", 3, 4);
  }
  RecordEvent("test-outside", "dir-ev", 3, 5);
  const std::vector<SpanRecord> recs = RecordsAfter(mark);
  const SpanRecord* root = FindByName(recs, "test.ev.root");
  const SpanRecord* inside = FindByName(recs, "test-inside");
  const SpanRecord* outside = FindByName(recs, "test-outside");
  ASSERT_NE(root, nullptr);
  ASSERT_NE(inside, nullptr);
  ASSERT_NE(outside, nullptr);
  EXPECT_EQ(inside->trace_id, root->trace_id);
  EXPECT_EQ(inside->parent_id, root->span_id);
  EXPECT_EQ(inside->span_id, 0u);
  EXPECT_EQ(inside->tid, 0u) << "events create no per-thread track";
  EXPECT_STREQ(inside->tag, "dir-ev");
  EXPECT_EQ(outside->trace_id, 0u);
}

TEST(Span, ConcurrentTracedAppendersNeverTearRecords) {
  // TSan lane: writers publishing sampled span trees while a reader
  // snapshots the shared collector. Every record a snapshot returns
  // must be internally consistent (ids nonzero, known name).
  SamplingGuard guard;
  SetTraceSampling(1, 7);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 2000;
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      for (const SpanRecord& r : TraceCollector::Global().Snapshot()) {
        // Lifecycle events share the ring: zero-duration, no thread.
        if (r.span_id == 0) {
          ASSERT_EQ(r.dur_nanos, 0u);
          ASSERT_EQ(r.tid, 0u);
          continue;
        }
        ASSERT_NE(r.trace_id, 0u);
        const std::string name(r.name);
        ASSERT_FALSE(name.empty());
      }
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([] {
      for (int i = 0; i < kPerThread; ++i) {
        ScopedSpan root("test.mt.root", static_cast<uint64_t>(i));
        ScopedSpan child("test.mt.child");
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();
  // 4 threads x 2000 roots x 2 spans, all sampled.
  EXPECT_GE(TraceCollector::Global().recorded(),
            static_cast<uint64_t>(kThreads) * kPerThread * 2);
}

TEST(Span, WatchdogFiresOnceOnOverdueOpAndNotOnFastOp) {
  // A 1 ms budget op left armed past its deadline fires exactly once;
  // an op disarmed in time never fires.
  Watchdog& dog = Watchdog::Global();
  const uint64_t before = dog.stalls_fired();
  {
    ScopedWatch fast("test.fast", "fast-op", 1000);
  }
  EXPECT_EQ(dog.stalls_fired(), before);
  const uint64_t h = dog.Arm("test.slow", "slow-op", 1);
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  EXPECT_EQ(dog.stalls_fired(), before + 1);
  dog.Disarm(h);
  // Already fired: disarm after the fact neither refires nor crashes.
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(dog.stalls_fired(), before + 1);
  // Negative budget disables arming entirely.
  EXPECT_EQ(dog.Arm("test.off", "disabled", -1), 0u);
}

TEST(Span, HugeWatchdogBudgetSaturatesInsteadOfFiring) {
  // Budgets whose nanosecond deadline overflows u64 (or the clock's
  // signed range) must mean "far future", never "already due".
  Watchdog& dog = Watchdog::Global();
  const uint64_t before = dog.stalls_fired();
  const uint64_t h1 = dog.Arm("test.huge", "huge-op", INT64_MAX);
  const uint64_t h2 =
      dog.Arm("test.far", "far-op", int64_t{10'000'000'000'000});
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(dog.stalls_fired(), before);
  dog.Disarm(h1);
  dog.Disarm(h2);
}

TEST(Span, SlowOpThresholdRoundTripsOrSaturates) {
  SamplingGuard guard;
  constexpr uint64_t kMaxMs = UINT64_MAX / 1'000'000ull;
  SetSlowOpThresholdMs(250);
  EXPECT_EQ(SlowOpThresholdMs(), 250u);
  SetSlowOpThresholdMs(kMaxMs);
  EXPECT_EQ(SlowOpThresholdMs(), kMaxMs);
  SetSlowOpThresholdMs(UINT64_MAX / 1000);
  EXPECT_EQ(SlowOpThresholdMs(), kMaxMs);
  SetSlowOpThresholdMs(UINT64_MAX);
  EXPECT_EQ(SlowOpThresholdMs(), kMaxMs);
}

}  // namespace
}  // namespace fcbench::obs

#ifndef FCBENCH_OBS_SPAN_H_
#define FCBENCH_OBS_SPAN_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/ring.h"

namespace fcbench::obs {

/// Request-scoped hierarchical span tracing for the storage stack. The
/// same design discipline as metrics and failpoints: when tracing is off
/// (the default) a ScopedSpan costs one relaxed atomic load and a
/// branch; when on, spans are pushed onto a thread-local stack, stamped
/// with steady-clock nanos, and — for sampled traces — drained from a
/// bounded per-thread buffer into the process-wide TraceCollector with
/// one fetch_add per batch (lock-free publish, fixed memory cap, drop
/// counter).
///
/// Sampling is deterministic: FCBENCH_TRACE_SAMPLE=1/N (or just N)
/// samples every Nth root span per thread, phase-shifted by a seeded
/// hash of the thread index (seed 1 unless SetTraceSampling says
/// otherwise), so two runs of the same workload sample the same
/// operations. A root span is a span opened with no enclosing span and
/// no adopted context.
///
/// The slow-op log (FCBENCH_SLOW_OP_MS) piggybacks on the same stack:
/// any span — sampled or not — whose duration crosses the threshold
/// emits a one-line JSON record to stderr with its full span path.

/// Steady-clock nanos since process start: the one time axis of spans
/// and lifecycle events.
uint64_t MonotonicNanos();

/// True when span tracking is on (sampling enabled OR a slow-op
/// threshold set). One relaxed load; the ScopedSpan fast path.
bool TracingActive();

/// Sample 1 in `n` root spans (0 disables sampling; 1 samples all).
/// Overrides FCBENCH_TRACE_SAMPLE. `seed` shifts the per-thread phase.
void SetTraceSampling(uint64_t n, uint64_t seed = 1);
uint64_t TraceSampleN();

/// Emit a slow-op JSON line for any span at or over `ms` (0 disables).
/// Overrides FCBENCH_SLOW_OP_MS. Thresholds too large to express in
/// nanoseconds saturate (SlowOpThresholdMs then reads UINT64_MAX / 1e6).
void SetSlowOpThresholdMs(uint64_t ms);
uint64_t SlowOpThresholdMs();

/// One completed span, or one lifecycle event. Ids are process-unique
/// and nonzero for sampled spans; `parent_id` is 0 for a trace root.
/// `tid` is a small per-thread index (also the Chrome-trace tid).
///
/// An event (RecordEvent) is a zero-duration record with `span_id` 0
/// and `tid` 0: `name` is its kind ("wal-rotate", "retry-backoff",
/// "degraded", ...), `a`/`b` its kind-specific payload (bytes, attempt
/// number, segment id...), `tag` its truncated detail (usually the
/// engine dir), and `trace_id`/`parent_id` the sampled span open on the
/// recording thread (0 when none).
struct SpanRecord {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent_id = 0;
  uint64_t start_nanos = 0;
  uint64_t dur_nanos = 0;
  uint32_t tid = 0;
  uint64_t a = 0;
  uint64_t b = 0;
  char name[24] = {};
  char tag[48] = {};
};

/// The (trace id, innermost open span id) pair of the calling thread;
/// both zero when no sampled trace is active. Capture at task-submit
/// time and adopt on the worker (ScopedTraceContext) so background work
/// nests under its trigger.
struct TraceContext {
  uint64_t trace_id = 0;
  uint64_t parent_span = 0;
};
TraceContext CurrentTraceContext();

/// Adopts a captured TraceContext on the current thread: spans opened
/// while alive record into that trace, parented under ctx.parent_span.
/// No-op when the context is empty or the thread is already inside a
/// span stack (the ParallelFor caller participating in its own batch).
class ScopedTraceContext {
 public:
  explicit ScopedTraceContext(const TraceContext& ctx);
  ~ScopedTraceContext();
  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;

 private:
  bool adopted_ = false;
};

/// RAII span. `name` must have static storage duration (string
/// literal): the open-span stack stores the pointer, not a copy, so the
/// watchdog can dump live stacks from another thread.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, uint64_t a = 0, uint64_t b = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Update the kind-specific payload before the span closes.
  void SetArgs(uint64_t a, uint64_t b);
  /// Short label (truncated to 15 chars), e.g. the errno of a failed
  /// IO attempt. Copied.
  void SetTag(const char* tag);
  /// True when this span is part of a sampled trace (will be published).
  bool recording() const { return frame_ >= 0 && recording_; }

 private:
  int8_t frame_ = -1;  // index into the thread's stack; -1 = not pushed
  bool recording_ = false;
};

/// Process-wide ring of completed sampled spans and lifecycle events —
/// one timeline. A SeqlockRing with one ticket reservation per drained
/// span batch (not per span) and one per event, so recording is safe
/// from any engine thread including failure paths. The ring wraps,
/// keeping the newest `capacity` records, and dropped() counts what
/// wrapping discarded. Fixed memory, allocated once.
class TraceCollector {
 public:
  /// `capacity` is clamped to [64, 2^20], then rounded up to a power of
  /// two.
  explicit TraceCollector(size_t capacity = 8192) : ring_(capacity, 64) {}

  /// The process-wide collector (leaked singleton). Capacity from
  /// FCBENCH_TRACE_CAP (spans and events, default 8192).
  static TraceCollector& Global();

  /// Publish `n` completed spans with one ticket reservation.
  void PublishBatch(const SpanRecord* recs, size_t n) {
    ring_.Publish(recs, n);
  }

  /// Publishes one lifecycle event (see SpanRecord) stamped now, whatever
  /// the sampling rate. `detail` is truncated to sizeof(tag) - 1 bytes.
  void RecordEvent(const char* name, std::string_view detail, uint64_t a = 0,
                   uint64_t b = 0);

  /// The retained records, oldest first. Torn slots are skipped.
  std::vector<SpanRecord> Snapshot() const;

  /// The last `max_events` retained events (span_id 0) as text, one
  /// line each, oldest first: the post-mortem tail the degradation hook,
  /// the watchdog and `fcbench_cli stats --trace` print.
  std::string DumpEvents(size_t max_events = 32) const;

  /// Chrome-trace / Perfetto-loadable JSON: {"traceEvents": [...]} with
  /// the spans as "ph":"X" complete events (ts/dur in microseconds) and
  /// the events as "ph":"i" instants on the same epoch. Load at
  /// https://ui.perfetto.dev or chrome://tracing. Nesting on a track is
  /// by time containment; cross-thread causality travels in
  /// args.trace/args.parent.
  std::string ToChromeJson() const;

  uint64_t recorded() const { return ring_.recorded(); }
  /// Records lost to ring wraparound (recorded - capacity, floored at 0).
  uint64_t dropped() const { return ring_.dropped(); }
  size_t capacity() const { return ring_.capacity(); }

 private:
  SeqlockRing<SpanRecord> ring_;
};

/// TraceCollector::Global().RecordEvent: the storage stack's lifecycle
/// moments (WAL rotate, flush start/publish/fail, compaction,
/// retry/backoff, read-only degradation, quarantine, scrub, stall).
inline void RecordEvent(const char* name, std::string_view detail,
                        uint64_t a = 0, uint64_t b = 0) {
  TraceCollector::Global().RecordEvent(name, detail, a, b);
}

/// Every thread's currently-open span stack as text (one line per
/// thread with open spans). Best-effort: stacks are read with relaxed
/// atomics while their owners keep running.
std::string DumpOpenSpans();

/// Deadline watchdog for long-running storage operations. One lazily
/// started (and leaked) thread sleeps until the earliest armed
/// deadline; an operation still armed past its budget fires exactly
/// once: a `stall` event, the obs.watchdog.stalls counter, and a stderr
/// dump of the open span stacks plus the collector's event tail.
class Watchdog {
 public:
  static Watchdog& Global();

  /// FCBENCH_WATCHDOG_MS (default 30000; 0 disables all default-budget
  /// watches).
  static int64_t DefaultBudgetMs();

  /// Registers an operation. `what` must be a string literal;
  /// `budget_ms` 0 means DefaultBudgetMs(), negative disables; a budget
  /// past the steady clock's range never fires. Returns a handle for
  /// Disarm (0 when disabled).
  uint64_t Arm(const char* what, const std::string& detail,
               int64_t budget_ms = 0);
  void Disarm(uint64_t handle);

  /// Total stall firings since process start (test hook; independent of
  /// the metrics-enabled flag).
  uint64_t stalls_fired() const {
    return stalls_.load(std::memory_order_relaxed);
  }

 private:
  Watchdog();
  struct Impl;

  std::atomic<uint64_t> stalls_{0};
  Impl* const impl_;  // leaked with the singleton
};

/// RAII Arm/Disarm.
class ScopedWatch {
 public:
  ScopedWatch(const char* what, const std::string& detail,
              int64_t budget_ms = 0)
      : id_(Watchdog::Global().Arm(what, detail, budget_ms)) {}
  ~ScopedWatch() { Watchdog::Global().Disarm(id_); }
  ScopedWatch(const ScopedWatch&) = delete;
  ScopedWatch& operator=(const ScopedWatch&) = delete;

 private:
  uint64_t id_;
};

}  // namespace fcbench::obs

#endif  // FCBENCH_OBS_SPAN_H_

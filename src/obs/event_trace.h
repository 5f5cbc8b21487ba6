#ifndef FCBENCH_OBS_EVENT_TRACE_H_
#define FCBENCH_OBS_EVENT_TRACE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/ring.h"

namespace fcbench::obs {

/// Lifecycle moments the storage stack records into the flight recorder.
enum class EventKind : uint8_t {
  kWalRotate = 0,
  kFlushStart,
  kFlushPublish,
  kFlushFail,
  kCompact,
  kRetryBackoff,
  kDegraded,
  kQuarantine,
  kScrub,
  kStall,
};
const char* EventKindName(EventKind kind);

/// One recorded event. `nanos` is steady-clock time since process
/// start, `seq` the global 1-based record order, `a`/`b` kind-specific
/// payload (bytes, attempt number, segment id...), `detail` a truncated
/// NUL-terminated label (usually the engine dir). `trace_id` is the
/// sampled span trace active on the recording thread (0 when none):
/// it travels out-of-band of the 47-char detail so a ring-tail dump can
/// be correlated with the span timeline.
struct TraceEvent {
  uint64_t seq = 0;
  uint64_t nanos = 0;
  EventKind kind = EventKind::kWalRotate;
  uint64_t a = 0;
  uint64_t b = 0;
  uint64_t trace_id = 0;
  char detail[48] = {};

  std::string ToString() const;
};

/// Fixed-capacity lock-free flight recorder for structured lifecycle
/// events (WAL rotate, flush start/publish, compaction, retry/backoff,
/// read-only degradation, quarantine), stored in a SeqlockRing — the
/// same ring the span TraceCollector uses — so recording is safe from
/// any engine thread including failure paths. The ring wraps: only the
/// last `capacity` events are kept, which is exactly what a post-mortem
/// wants ("the seconds before the shard degraded").
///
/// The engine auto-dumps the tail to stderr when it degrades to
/// read-only (DumpToStderr).
class EventTrace {
 public:
  static constexpr size_t kDetailBytes = sizeof(TraceEvent::detail);

  /// `capacity` is rounded up to a power of two, minimum 8.
  explicit EventTrace(size_t capacity = 1024) : ring_(capacity, 8) {}

  /// The process-wide recorder (leaked singleton).
  static EventTrace& Global();

  void Record(EventKind kind, std::string_view detail, uint64_t a = 0,
              uint64_t b = 0);

  /// The retained events, oldest first. Slots a writer is mid-filling
  /// are skipped, so under concurrency the result can briefly be shorter
  /// than min(recorded, capacity).
  std::vector<TraceEvent> Snapshot() const;

  /// The last `max_events` events as text, oldest first.
  std::string Dump(size_t max_events = 32) const;

  /// Dump() to stderr prefixed with `why`. The degradation hook.
  void DumpToStderr(const std::string& why, size_t max_events = 32) const;

  /// Total events ever recorded (not capped by capacity).
  uint64_t recorded() const { return ring_.recorded(); }
  size_t capacity() const { return ring_.capacity(); }

 private:
  SeqlockRing<TraceEvent> ring_;
};

}  // namespace fcbench::obs

#endif  // FCBENCH_OBS_EVENT_TRACE_H_

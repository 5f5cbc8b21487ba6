#include "obs/event_trace.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "obs/span.h"

namespace fcbench::obs {

const char* EventKindName(EventKind kind) {
  switch (kind) {
    case EventKind::kWalRotate:
      return "wal-rotate";
    case EventKind::kFlushStart:
      return "flush-start";
    case EventKind::kFlushPublish:
      return "flush-publish";
    case EventKind::kFlushFail:
      return "flush-fail";
    case EventKind::kCompact:
      return "compact";
    case EventKind::kRetryBackoff:
      return "retry-backoff";
    case EventKind::kDegraded:
      return "degraded";
    case EventKind::kQuarantine:
      return "quarantine";
    case EventKind::kScrub:
      return "scrub";
    case EventKind::kStall:
      return "stall";
  }
  return "unknown";
}

std::string TraceEvent::ToString() const {
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "[%9.3f ms] #%llu %-13s a=%llu b=%llu %s",
                static_cast<double>(nanos) / 1e6,
                static_cast<unsigned long long>(seq), EventKindName(kind),
                static_cast<unsigned long long>(a),
                static_cast<unsigned long long>(b), detail);
  std::string out(buf);
  if (trace_id != 0) {
    std::snprintf(buf, sizeof(buf), " trace=%llx",
                  static_cast<unsigned long long>(trace_id));
    out += buf;
  }
  return out;
}

EventTrace& EventTrace::Global() {
  static EventTrace* t = new EventTrace(1024);
  return *t;
}

void EventTrace::Record(EventKind kind, std::string_view detail, uint64_t a,
                        uint64_t b) {
  TraceEvent e;
  // The span tracer's epoch, so ring dumps and span timelines share one
  // time axis.
  e.nanos = MonotonicNanos();
  e.kind = kind;
  e.a = a;
  e.b = b;
  // Correlate with any sampled span trace live on this thread.
  e.trace_id = CurrentTraceContext().trace_id;
  std::memcpy(e.detail, detail.data(),
              std::min(detail.size(), kDetailBytes - 1));
  ring_.Publish(&e, 1);
}

std::vector<TraceEvent> EventTrace::Snapshot() const {
  std::vector<TraceEvent> out;
  out.reserve(std::min<uint64_t>(recorded(), capacity()));
  ring_.ForEach([&out](uint64_t ticket, const TraceEvent& e) {
    out.push_back(e);
    out.back().seq = ticket;
  });
  return out;
}

std::string EventTrace::Dump(size_t max_events) const {
  std::vector<TraceEvent> events = Snapshot();
  const size_t skip =
      events.size() > max_events ? events.size() - max_events : 0;
  std::string out;
  for (size_t i = skip; i < events.size(); ++i) {
    out += events[i].ToString();
    out.push_back('\n');
  }
  return out;
}

void EventTrace::DumpToStderr(const std::string& why,
                              size_t max_events) const {
  std::fprintf(stderr, "fcbench: event trace (%s):\n%s", why.c_str(),
               Dump(max_events).c_str());
}

}  // namespace fcbench::obs

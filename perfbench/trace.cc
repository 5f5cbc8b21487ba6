#include "trace.h"

#include <cstdio>

namespace perfbench {

namespace {

thread_local uint64_t tl_current_span = 0;

uint32_t ThreadIndex() {
  static std::atomic<uint32_t> next{0};
  thread_local const uint32_t index = next.fetch_add(1) + 1;
  return index;
}

}  // namespace

void Tracer::Record(const SpanRecord& rec) {
  std::lock_guard<std::mutex> g(mu_);
  spans_.push_back(rec);
}

std::vector<SpanRecord> Tracer::Spans() const {
  std::lock_guard<std::mutex> g(mu_);
  return spans_;
}

std::string Tracer::ChromeJson() const {
  std::string out = "{\"traceEvents\": [";
  char buf[384];
  bool first = true;
  for (const SpanRecord& s : Spans()) {
    std::snprintf(buf, sizeof(buf),
                  "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                  "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                  "{\"id\": %llu, \"parent\": %llu, \"workload\": \"%s\"}}",
                  first ? "" : ",", s.name, s.tid, s.start_ns / 1e3,
                  (s.end_ns - s.start_ns) / 1e3,
                  static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent),
                  workload_.c_str());
    out += buf;
    first = false;
  }
  out += "\n]}\n";
  return out;
}

Span::Span(Tracer* tracer, const char* name, uint64_t parent)
    : tracer_(tracer) {
  rec_.name = name;
  if (tracer_ != nullptr) {
    rec_.id = tracer_->NextId();
    rec_.parent = parent == kInheritParent ? tl_current_span : parent;
    rec_.tid = ThreadIndex();
    saved_current_ = tl_current_span;
    tl_current_span = rec_.id;
  }
  rec_.start_ns = NowNanos();
}

uint64_t Span::Stop() {
  if (!stopped_) {
    stopped_ = true;
    rec_.end_ns = NowNanos();
    if (tracer_ != nullptr) {
      tl_current_span = saved_current_;
      tracer_->Record(rec_);
    }
  }
  return rec_.end_ns - rec_.start_ns;
}

}  // namespace perfbench

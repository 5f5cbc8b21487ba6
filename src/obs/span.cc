#include "obs/span.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <thread>

#include "obs/metrics.h"

namespace fcbench::obs {

namespace {

/// Span stack depth per thread. Deeper nesting is tracked (LIFO pairing
/// stays correct) but not recorded.
constexpr int kMaxDepth = 16;
/// Completed sampled spans buffered per thread before one batched
/// publish into the collector.
constexpr size_t kThreadBufCap = 64;

/// A span's SetTag label, NUL included. Shorter than SpanRecord::tag,
/// which also holds an event's detail.
constexpr size_t kSpanTagBytes = 16;

constexpr int8_t kNotPushed = -1;
constexpr int8_t kOverflow = -2;

// Mode globals. Constant-initialized atomics: safe to touch from any
// dynamic initializer; the env snapshot below runs at startup.
std::atomic<uint32_t> g_active{0};
std::atomic<uint64_t> g_sample_n{0};
std::atomic<uint64_t> g_seed{1};
std::atomic<uint64_t> g_slow_ns{0};
std::atomic<uint64_t> g_next_id{0};
std::atomic<uint32_t> g_next_tid{0};

uint64_t NewId() { return g_next_id.fetch_add(1, std::memory_order_relaxed) + 1; }

void UpdateActive() {
  const bool on = g_sample_n.load(std::memory_order_relaxed) > 0 ||
                  g_slow_ns.load(std::memory_order_relaxed) > 0;
  g_active.store(on ? 1 : 0, std::memory_order_relaxed);
}

uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Milliseconds (from outside input: env, options) to nanoseconds,
/// saturating instead of wrapping.
uint64_t MsToNanos(uint64_t ms) {
  return ms > UINT64_MAX / 1'000'000ull ? UINT64_MAX : ms * 1'000'000ull;
}

/// FCBENCH_TRACE_SAMPLE accepts "1/N" or plain "N"; 0/absent = off.
uint64_t ParseSampleEnv(const char* env) {
  if (env == nullptr || *env == '\0') return 0;
  const char* slash = std::strchr(env, '/');
  return std::strtoull(slash != nullptr ? slash + 1 : env, nullptr, 10);
}

struct EnvInit {
  EnvInit() {
    g_sample_n.store(ParseSampleEnv(std::getenv("FCBENCH_TRACE_SAMPLE")),
                     std::memory_order_relaxed);
    if (const char* ms = std::getenv("FCBENCH_SLOW_OP_MS")) {
      g_slow_ns.store(MsToNanos(std::strtoull(ms, nullptr, 10)),
                      std::memory_order_relaxed);
    }
    UpdateActive();
  }
};
EnvInit g_env_init;

struct Frame {
  const char* name = nullptr;
  uint64_t span_id = 0;
  uint64_t start = 0;
  uint64_t a = 0;
  uint64_t b = 0;
  char tag[kSpanTagBytes] = {};
};

/// Per-thread tracer state. Registered in a global list so the watchdog
/// can dump every live thread's open stack; the open_* mirrors are the
/// only fields other threads read (relaxed atomics, best-effort).
struct ThreadState {
  uint32_t tid = 0;
  uint64_t root_count = 0;
  uint64_t sample_phase_seed = 0;
  int depth = 0;
  int skipped = 0;  // spans past kMaxDepth (tracked, not recorded)
  int adopt_depth = 0;
  bool recording = false;
  uint64_t trace_id = 0;
  uint64_t adopted_parent = 0;
  Frame frames[kMaxDepth];
  SpanRecord buf[kThreadBufCap];
  size_t buf_len = 0;

  std::atomic<int> open_depth{0};
  std::atomic<uintptr_t> open_name[kMaxDepth] = {};
  std::atomic<uint64_t> open_start[kMaxDepth] = {};
};

std::mutex& RegistryMutex() {
  static std::mutex* mu = new std::mutex;
  return *mu;
}

std::vector<ThreadState*>& RegistryList() {
  static std::vector<ThreadState*>* v = new std::vector<ThreadState*>;
  return *v;
}

void FlushThreadBuf(ThreadState& ts) {
  if (ts.buf_len == 0) return;
  TraceCollector::Global().PublishBatch(ts.buf, ts.buf_len);
  ts.buf_len = 0;
}

/// Wraps the thread_local so registration/unregistration bracket the
/// thread's lifetime, and late calls during thread teardown (other
/// thread_local destructors) see nullptr instead of a dead object.
struct ThreadStateHolder {
  ThreadState st;
  bool* dead;
  explicit ThreadStateHolder(bool* dead_flag) : dead(dead_flag) {
    st.tid = g_next_tid.fetch_add(1, std::memory_order_relaxed) + 1;
    st.sample_phase_seed = static_cast<uint64_t>(st.tid);
    std::lock_guard<std::mutex> lk(RegistryMutex());
    RegistryList().push_back(&st);
  }
  ~ThreadStateHolder() {
    FlushThreadBuf(st);
    {
      std::lock_guard<std::mutex> lk(RegistryMutex());
      auto& list = RegistryList();
      for (size_t i = 0; i < list.size(); ++i) {
        if (list[i] == &st) {
          list[i] = list.back();
          list.pop_back();
          break;
        }
      }
    }
    *dead = true;
  }
};

ThreadState* Tls() {
  thread_local bool dead = false;  // outlives holder (reverse dtor order)
  thread_local ThreadStateHolder holder(&dead);
  return dead ? nullptr : &holder.st;
}

bool SampleRoot(ThreadState& ts) {
  const uint64_t n = g_sample_n.load(std::memory_order_relaxed);
  if (n == 0) return false;
  if (n == 1) return true;
  const uint64_t phase =
      SplitMix64(g_seed.load(std::memory_order_relaxed) ^
                 ts.sample_phase_seed) %
      n;
  return (ts.root_count++ % n) == phase;
}

void CopyTag(char* dst, size_t dst_len, const char* src) {
  std::strncpy(dst, src, dst_len - 1);
  dst[dst_len - 1] = '\0';
}

void EmitSlowOp(const ThreadState& ts, const Frame& f, uint64_t dur_nanos) {
  // Full path root > ... > this span; ts.depth was already decremented,
  // so frames[0..ts.depth] inclusive is the open chain plus f itself.
  char path[256];
  size_t off = 0;
  for (int i = 0; i <= ts.depth && i < kMaxDepth; ++i) {
    const char* name = i == ts.depth ? f.name : ts.frames[i].name;
    const int wrote =
        std::snprintf(path + off, sizeof(path) - off, "%s%s",
                      i > 0 ? ">" : "", name != nullptr ? name : "?");
    if (wrote < 0 || off + static_cast<size_t>(wrote) >= sizeof(path)) break;
    off += static_cast<size_t>(wrote);
  }
  char line[512];
  std::snprintf(line, sizeof(line),
                "{\"slow_op\":{\"name\":\"%s\",\"path\":\"%s\",\"ms\":%.3f,"
                "\"tid\":%u,\"trace\":\"%016llx\",\"a\":%llu,\"b\":%llu,"
                "\"tag\":\"%s\"}}\n",
                f.name, path, static_cast<double>(dur_nanos) / 1e6, ts.tid,
                static_cast<unsigned long long>(ts.trace_id),
                static_cast<unsigned long long>(f.a),
                static_cast<unsigned long long>(f.b), f.tag);
  std::fputs(line, stderr);
}

}  // namespace

uint64_t MonotonicNanos() {
  static const std::chrono::steady_clock::time_point start =
      std::chrono::steady_clock::now();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

bool TracingActive() {
  return g_active.load(std::memory_order_relaxed) != 0;
}

void SetTraceSampling(uint64_t n, uint64_t seed) {
  g_sample_n.store(n, std::memory_order_relaxed);
  g_seed.store(seed, std::memory_order_relaxed);
  UpdateActive();
}

uint64_t TraceSampleN() {
  return g_sample_n.load(std::memory_order_relaxed);
}

void SetSlowOpThresholdMs(uint64_t ms) {
  g_slow_ns.store(MsToNanos(ms), std::memory_order_relaxed);
  UpdateActive();
}

uint64_t SlowOpThresholdMs() {
  return g_slow_ns.load(std::memory_order_relaxed) / 1'000'000ull;
}

TraceContext CurrentTraceContext() {
  if (!TracingActive()) return {};
  ThreadState* ts = Tls();
  if (ts == nullptr || !ts->recording) return {};
  return {ts->trace_id, ts->depth > 0 ? ts->frames[ts->depth - 1].span_id
                                      : ts->adopted_parent};
}

ScopedTraceContext::ScopedTraceContext(const TraceContext& ctx) {
  if (ctx.trace_id == 0 || !TracingActive()) return;
  ThreadState* ts = Tls();
  // Only a quiescent thread adopts: the ParallelFor caller draining its
  // own batch is already inside the right trace.
  if (ts == nullptr || ts->depth != 0 || ts->adopt_depth != 0) return;
  ts->adopt_depth = 1;
  ts->recording = true;
  ts->trace_id = ctx.trace_id;
  ts->adopted_parent = ctx.parent_span;
  adopted_ = true;
}

ScopedTraceContext::~ScopedTraceContext() {
  if (!adopted_) return;
  ThreadState* ts = Tls();
  if (ts == nullptr) return;
  FlushThreadBuf(*ts);
  ts->adopt_depth = 0;
  ts->recording = false;
  ts->trace_id = 0;
  ts->adopted_parent = 0;
}

ScopedSpan::ScopedSpan(const char* name, uint64_t a, uint64_t b) {
  if (!TracingActive()) return;
  ThreadState* ts = Tls();
  if (ts == nullptr) return;
  if (ts->skipped > 0 || ts->depth >= kMaxDepth) {
    ++ts->skipped;
    frame_ = kOverflow;
    return;
  }
  if (ts->depth == 0 && ts->adopt_depth == 0) {
    ts->recording = SampleRoot(*ts);
    ts->trace_id = ts->recording ? NewId() : 0;
  }
  Frame& f = ts->frames[ts->depth];
  f.name = name;
  f.span_id = ts->recording ? NewId() : 0;
  f.a = a;
  f.b = b;
  f.tag[0] = '\0';
  f.start = MonotonicNanos();
  ts->open_name[ts->depth].store(reinterpret_cast<uintptr_t>(name),
                                 std::memory_order_relaxed);
  ts->open_start[ts->depth].store(f.start, std::memory_order_relaxed);
  frame_ = static_cast<int8_t>(ts->depth);
  recording_ = ts->recording;
  ++ts->depth;
  ts->open_depth.store(ts->depth, std::memory_order_release);
}

ScopedSpan::~ScopedSpan() {
  if (frame_ == kNotPushed) return;
  ThreadState* ts = Tls();
  if (ts == nullptr) return;
  if (frame_ == kOverflow) {
    --ts->skipped;
    return;
  }
  const uint64_t end = MonotonicNanos();
  --ts->depth;
  ts->open_depth.store(ts->depth, std::memory_order_release);
  const Frame& f = ts->frames[ts->depth];
  const uint64_t dur = end - f.start;
  if (recording_) {
    SpanRecord& r = ts->buf[ts->buf_len++];
    r.trace_id = ts->trace_id;
    r.span_id = f.span_id;
    r.parent_id = ts->depth > 0 ? ts->frames[ts->depth - 1].span_id
                                : ts->adopted_parent;
    r.start_nanos = f.start;
    r.dur_nanos = dur;
    r.tid = ts->tid;
    r.a = f.a;
    r.b = f.b;
    CopyTag(r.name, sizeof(r.name), f.name != nullptr ? f.name : "?");
    CopyTag(r.tag, sizeof(r.tag), f.tag);
    if (ts->buf_len == kThreadBufCap) FlushThreadBuf(*ts);
  }
  const uint64_t slow = g_slow_ns.load(std::memory_order_relaxed);
  if (slow != 0 && dur >= slow) EmitSlowOp(*ts, f, dur);
  if (ts->depth == 0 && ts->adopt_depth == 0) {
    if (recording_) FlushThreadBuf(*ts);
    ts->recording = false;
    ts->trace_id = 0;
  }
}

void ScopedSpan::SetArgs(uint64_t a, uint64_t b) {
  if (frame_ < 0) return;
  ThreadState* ts = Tls();
  if (ts == nullptr) return;
  ts->frames[frame_].a = a;
  ts->frames[frame_].b = b;
}

void ScopedSpan::SetTag(const char* tag) {
  if (frame_ < 0) return;
  ThreadState* ts = Tls();
  if (ts == nullptr) return;
  CopyTag(ts->frames[frame_].tag, sizeof(ts->frames[frame_].tag), tag);
}

// ---------------------------------------------------------------------------
// TraceCollector
// ---------------------------------------------------------------------------

TraceCollector& TraceCollector::Global() {
  static TraceCollector* c = new TraceCollector([] {
    const char* env = std::getenv("FCBENCH_TRACE_CAP");
    const size_t cap =
        env != nullptr ? std::strtoull(env, nullptr, 10) : size_t{0};
    return cap > 0 ? cap : size_t{8192};
  }());
  return *c;
}

void TraceCollector::RecordEvent(const char* name, std::string_view detail,
                                 uint64_t a, uint64_t b) {
  SpanRecord r;
  r.start_nanos = MonotonicNanos();
  // Correlate with any sampled span trace live on this thread.
  const TraceContext ctx = CurrentTraceContext();
  r.trace_id = ctx.trace_id;
  r.parent_id = ctx.parent_span;
  r.a = a;
  r.b = b;
  CopyTag(r.name, sizeof(r.name), name);
  std::memcpy(r.tag, detail.data(), std::min(detail.size(), sizeof(r.tag) - 1));
  ring_.Publish(&r, 1);
}

std::vector<SpanRecord> TraceCollector::Snapshot() const {
  std::vector<SpanRecord> out;
  out.reserve(std::min<uint64_t>(recorded(), capacity()));
  ring_.ForEach([&out](uint64_t, const SpanRecord& r) {
    out.push_back(r);
    // PublishBatch takes caller records; never trust their terminators.
    out.back().name[sizeof(r.name) - 1] = '\0';
    out.back().tag[sizeof(r.tag) - 1] = '\0';
  });
  return out;
}

namespace {

/// JSON-escapes into a fixed buffer: `"` and `\` get a backslash,
/// control bytes become spaces. Names are literals and tags short
/// labels or event details, but neither is trusted to be JSON-clean.
const char* JsonEscape(const char* in, char* buf, size_t cap) {
  size_t o = 0;
  for (size_t i = 0; in[i] != '\0' && o + 2 < cap; ++i) {
    unsigned char c = static_cast<unsigned char>(in[i]);
    if (c == '"' || c == '\\') buf[o++] = '\\';
    buf[o++] = c < 0x20 ? ' ' : static_cast<char>(c);
  }
  buf[o] = '\0';
  return buf;
}

}  // namespace

std::string TraceCollector::DumpEvents(size_t max_events) const {
  std::vector<SpanRecord> events = Snapshot();
  std::erase_if(events, [](const SpanRecord& r) { return r.span_id != 0; });
  const size_t skip =
      events.size() > max_events ? events.size() - max_events : 0;
  std::string out;
  char buf[192];
  for (size_t i = skip; i < events.size(); ++i) {
    const SpanRecord& e = events[i];
    std::snprintf(buf, sizeof(buf), "[%9.3f ms] %-13s a=%llu b=%llu %s",
                  static_cast<double>(e.start_nanos) / 1e6, e.name,
                  static_cast<unsigned long long>(e.a),
                  static_cast<unsigned long long>(e.b), e.tag);
    out += buf;
    if (e.trace_id != 0) {
      std::snprintf(buf, sizeof(buf), " trace=%llx",
                    static_cast<unsigned long long>(e.trace_id));
      out += buf;
    }
    out.push_back('\n');
  }
  return out;
}

std::string TraceCollector::ToChromeJson() const {
  const std::vector<SpanRecord> recs = Snapshot();
  std::string out;
  out.reserve(recs.size() * 220 + 64);
  out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[512];
  char name_esc[52], tag_esc[100];
  const char* sep = "";
  for (const SpanRecord& s : recs) {
    JsonEscape(s.name, name_esc, sizeof(name_esc));
    JsonEscape(s.tag, tag_esc, sizeof(tag_esc));
    if (s.span_id == 0) {
      // A lifecycle event is not tied to a span thread: a process-scoped
      // instant, stamped on the same MonotonicNanos epoch as the spans.
      std::snprintf(
          buf, sizeof(buf),
          "%s\n{\"name\":\"%s\",\"cat\":\"event\",\"ph\":\"i\",\"s\":\"p\","
          "\"pid\":1,\"tid\":0,\"ts\":%.3f,\"args\":{\"a\":%llu,\"b\":%llu,"
          "\"detail\":\"%s\",\"trace\":\"%llx\"}}",
          sep, name_esc, static_cast<double>(s.start_nanos) / 1e3,
          static_cast<unsigned long long>(s.a),
          static_cast<unsigned long long>(s.b), tag_esc,
          static_cast<unsigned long long>(s.trace_id));
    } else {
      std::snprintf(
          buf, sizeof(buf),
          "%s\n{\"name\":\"%s\",\"cat\":\"fcbench\",\"ph\":\"X\",\"pid\":1,"
          "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"trace\":\"%llx\","
          "\"span\":\"%llx\",\"parent\":\"%llx\",\"a\":%llu,\"b\":%llu,"
          "\"tag\":\"%s\"}}",
          sep, name_esc, s.tid, static_cast<double>(s.start_nanos) / 1e3,
          static_cast<double>(s.dur_nanos) / 1e3,
          static_cast<unsigned long long>(s.trace_id),
          static_cast<unsigned long long>(s.span_id),
          static_cast<unsigned long long>(s.parent_id),
          static_cast<unsigned long long>(s.a),
          static_cast<unsigned long long>(s.b), tag_esc);
    }
    out += buf;
    sep = ",";
  }
  out += "\n]}\n";
  return out;
}

std::string DumpOpenSpans() {
  std::string out;
  const uint64_t now = MonotonicNanos();
  std::lock_guard<std::mutex> lk(RegistryMutex());
  for (const ThreadState* ts : RegistryList()) {
    int depth = ts->open_depth.load(std::memory_order_acquire);
    if (depth <= 0) continue;
    if (depth > kMaxDepth) depth = kMaxDepth;
    char head[48];
    std::snprintf(head, sizeof(head), "  tid %u: ", ts->tid);
    out += head;
    for (int i = 0; i < depth; ++i) {
      const char* name = reinterpret_cast<const char*>(
          ts->open_name[i].load(std::memory_order_relaxed));
      if (i > 0) out += " > ";
      out += name != nullptr ? name : "?";
    }
    const uint64_t start =
        ts->open_start[depth - 1].load(std::memory_order_relaxed);
    char tail[48];
    std::snprintf(tail, sizeof(tail), " (%.1f ms)\n",
                  now > start ? static_cast<double>(now - start) / 1e6 : 0.0);
    out += tail;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Watchdog
// ---------------------------------------------------------------------------

struct Watchdog::Impl {
  struct Op {
    uint64_t id;
    const char* what;
    std::string detail;
    uint64_t start_nanos;
    uint64_t deadline_nanos;
    int64_t budget_ms;
    bool fired;
  };

  std::mutex mu;
  std::condition_variable cv;
  std::vector<Op> ops;
  uint64_t next_id = 0;
  bool thread_started = false;

  void Loop(Watchdog* dog);
  void Fire(Watchdog* dog, const Op& op, uint64_t now);
};

void Watchdog::Impl::Loop(Watchdog* dog) {
  std::unique_lock<std::mutex> lk(mu);
  for (;;) {
    uint64_t next = UINT64_MAX;
    for (const Op& op : ops) {
      if (!op.fired && op.deadline_nanos < next) next = op.deadline_nanos;
    }
    if (next == UINT64_MAX) {
      cv.wait(lk);
      continue;
    }
    const uint64_t now = MonotonicNanos();
    if (now < next) {
      // Capped at an hour: a far deadline's nanosecond count would
      // overflow the clock arithmetic inside wait_for.
      constexpr uint64_t kMaxWaitNanos = 3600ull * 1'000'000'000ull;
      cv.wait_for(lk, std::chrono::nanoseconds(
                          std::min(next - now, kMaxWaitNanos)));
      continue;  // re-scan: ops may have been armed/disarmed meanwhile
    }
    // Mark everything due as fired while locked, then fire unlocked so
    // the dump (which takes the thread-registry mutex and writes
    // stderr) never blocks Arm/Disarm on hot paths.
    std::vector<Op> due;
    for (Op& op : ops) {
      if (op.fired || op.deadline_nanos > now) continue;
      op.fired = true;
      due.push_back(op);
    }
    lk.unlock();
    for (const Op& op : due) Fire(dog, op, now);
    lk.lock();
  }
}

void Watchdog::Impl::Fire(Watchdog* dog, const Op& op, uint64_t now) {
  dog->stalls_.fetch_add(1, std::memory_order_relaxed);
  static Counter* stalls =
      MetricsRegistry::Global().GetCounter("obs.watchdog.stalls");
  stalls->Increment();
  const uint64_t elapsed_ms = (now - op.start_nanos) / 1'000'000ull;
  RecordEvent("stall", op.detail, elapsed_ms,
              static_cast<uint64_t>(op.budget_ms));
  std::fprintf(stderr,
               "fcbench: watchdog: %s stalled (%s): %llu ms elapsed, budget "
               "%lld ms\n",
               op.what, op.detail.c_str(),
               static_cast<unsigned long long>(elapsed_ms),
               static_cast<long long>(op.budget_ms));
  const std::string open = DumpOpenSpans();
  std::fprintf(stderr, "fcbench: open spans:\n%s",
               open.empty() ? "  (none)\n" : open.c_str());
  std::fprintf(stderr, "fcbench: event trace (watchdog stall: %s):\n%s",
               op.what, TraceCollector::Global().DumpEvents().c_str());
}

Watchdog::Watchdog() : impl_(new Impl) {}

Watchdog& Watchdog::Global() {
  static Watchdog* dog = new Watchdog;
  return *dog;
}

int64_t Watchdog::DefaultBudgetMs() {
  static const int64_t ms = [] {
    const char* env = std::getenv("FCBENCH_WATCHDOG_MS");
    if (env == nullptr || *env == '\0') return int64_t{30000};
    return static_cast<int64_t>(std::strtoll(env, nullptr, 10));
  }();
  return ms;
}

uint64_t Watchdog::Arm(const char* what, const std::string& detail,
                       int64_t budget_ms) {
  if (budget_ms == 0) budget_ms = DefaultBudgetMs();
  if (budget_ms <= 0) return 0;
  std::lock_guard<std::mutex> lk(impl_->mu);
  if (!impl_->thread_started) {
    impl_->thread_started = true;
    std::thread([this] { impl_->Loop(this); }).detach();
  }
  const uint64_t id = ++impl_->next_id;
  const uint64_t now = MonotonicNanos();
  const uint64_t budget_ns = MsToNanos(static_cast<uint64_t>(budget_ms));
  // A deadline of UINT64_MAX is never due (Loop treats it as "none").
  const uint64_t deadline =
      budget_ns > UINT64_MAX - now ? UINT64_MAX : now + budget_ns;
  impl_->ops.push_back({id, what, detail, now, deadline, budget_ms, false});
  impl_->cv.notify_one();
  return id;
}

void Watchdog::Disarm(uint64_t handle) {
  if (handle == 0) return;
  std::lock_guard<std::mutex> lk(impl_->mu);
  auto& ops = impl_->ops;
  for (size_t i = 0; i < ops.size(); ++i) {
    if (ops[i].id == handle) {
      ops[i] = std::move(ops.back());
      ops.pop_back();
      break;
    }
  }
}

}  // namespace fcbench::obs

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

inline uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// One completed span: a call the benchmark made into a layer.
struct SpanRecord {
  const char* name = "";  // string literal
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 for a root
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint32_t tid = 0;
};

/// In-memory span store of the traced run. Spans are kept until exit and
/// then written out as one Chrome-trace JSON file.
class Tracer {
 public:
  explicit Tracer(std::string workload) : workload_(std::move(workload)) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  uint64_t NextId() { return next_id_.fetch_add(1) + 1; }
  void Record(const SpanRecord& rec);
  std::vector<SpanRecord> Spans() const;
  /// {"traceEvents": [...]} with "ph":"X" events, loadable in Perfetto.
  std::string ChromeJson() const;

 private:
  const std::string workload_;
  std::atomic<uint64_t> next_id_{0};
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;  // guarded by mu_
};

/// Times one call with the steady clock and, when a Tracer is given,
/// records it as a span whose parent is the innermost open Span of this
/// thread (or `parent` when given, for work handed to another thread).
/// The untraced run passes a null Tracer and keeps only the duration.
class Span {
 public:
  static constexpr uint64_t kInheritParent = ~uint64_t{0};

  Span(Tracer* tracer, const char* name,
       uint64_t parent = kInheritParent);
  ~Span() { Stop(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Ends the span (idempotent) and returns its duration in nanoseconds.
  uint64_t Stop();
  /// Id to pass as `parent` to spans opened on other threads; 0 untraced.
  uint64_t id() const { return rec_.id; }

 private:
  Tracer* tracer_;
  SpanRecord rec_;
  uint64_t saved_current_ = 0;
  bool stopped_ = false;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_

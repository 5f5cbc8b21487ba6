#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>

#include "obs/metrics.h"
#include "obs/span.h"
#include "util/timer.h"

namespace fcbench {

namespace {

/// Submitted-but-not-yet-started tasks across ALL pools (there is
/// normally exactly one, ThreadPool::Shared()).
obs::Gauge* QueueDepthGauge() {
  static obs::Gauge* g =
      obs::MetricsRegistry::Global().GetGauge("pool.queue_depth");
  return g;
}

/// Set for the lifetime of a worker thread; lets ParallelFor detect that
/// it is being called from inside one of its own pool's tasks (nested
/// parallelism) and degrade to inline execution instead of deadlocking.
thread_local const ThreadPool* tls_worker_pool = nullptr;

/// Per-ParallelFor shared state: a dynamic work cursor plus a private
/// join over the helpers that actually started, so concurrent
/// ParallelFor calls on the same (shared) pool never wait on each
/// other's tasks, nor on helper stubs still queued behind them.
struct ForState {
  std::atomic<size_t> next{0};
  std::atomic<bool> failed{false};
  /// Helpers currently inside the work loop.
  size_t helpers_running = 0;
  /// Set by the caller once its own drain is done; a stub that starts
  /// afterwards returns without touching the caller's `fn`.
  bool closed = false;
  std::exception_ptr first_exception;
  std::mutex mu;
  std::condition_variable cv;
};

}  // namespace

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) num_threads = 1;
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_task_.notify_all();
  for (auto& w : workers_) w.join();
}

ThreadPool& ThreadPool::Shared() {
  // Leaked deliberately: workers park in their condition wait at process
  // exit, which sidesteps static-destruction-order joins from other
  // translation units' destructors.
  static ThreadPool* pool = new ThreadPool(
      static_cast<size_t>(DefaultThreads()));
  return *pool;
}

int ThreadPool::DefaultThreads() {
  static const int resolved = [] {
    if (const char* env = std::getenv("FCBENCH_THREADS")) {
      char* end = nullptr;
      long v = std::strtol(env, &end, 10);
      if (end != env && *end == '\0' && v > 0) {
        return static_cast<int>(std::min<long>(v, 512));
      }
      std::fprintf(stderr,
                   "fcbench: ignoring invalid FCBENCH_THREADS='%s'\n", env);
    }
    unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
  }();
  return resolved;
}

int ThreadPool::ResolveThreads(int configured) {
  return configured > 0 ? configured : DefaultThreads();
}

void ThreadPool::Submit(std::function<void()> task) {
  // Carry the submitter's trace context into the task so background
  // work (a scheduled flush, ParallelFor helpers) records spans nested
  // under the operation that triggered it. Free when tracing is off:
  // CurrentTraceContext is one relaxed load, and the wrapper only
  // exists while a sampled trace is live.
  const obs::TraceContext ctx = obs::CurrentTraceContext();
  if (ctx.trace_id != 0) {
    task = [ctx, inner = std::move(task)] {
      obs::ScopedTraceContext adopt(ctx);
      inner();
    };
  }
  {
    std::unique_lock<std::mutex> lock(mu_);
    tasks_.push(std::move(task));
    ++inflight_;
  }
  static obs::Counter* submitted =
      obs::MetricsRegistry::Global().GetCounter("pool.tasks");
  submitted->Increment();
  QueueDepthGauge()->Add(1);
  cv_task_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_done_.wait(lock, [this] { return inflight_ == 0; });
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn,
                             ForOptions options) {
  if (n == 0) return;

  size_t participants = workers_.size() + 1;  // workers + calling thread
  if (options.max_parallelism > 0) {
    participants = std::min(participants, options.max_parallelism);
  }

  // Reentrant call from one of our own workers: the queue position this
  // call would need may be behind the very task we are running, so run
  // inline. Single-participant budgets take the same path.
  if (participants <= 1 || tls_worker_pool == this) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  size_t grain = options.grain;
  if (grain == 0) grain = std::max<size_t>(1, n / (participants * 4));

  const size_t chunks = (n + grain - 1) / grain;
  // One drain loop per participant; never more helpers than there are
  // chunks beyond the one the caller will take.
  const size_t helpers = std::min(participants - 1, chunks - 1);

  auto state = std::make_shared<ForState>();

  // `fn` is a reference into the caller's frame: only helpers that
  // registered before the caller closed the call may use it, and the
  // caller waits for exactly those.
  auto drain = [state, n, grain, &fn] {
    for (;;) {
      if (state->failed.load(std::memory_order_relaxed)) return;
      size_t begin = state->next.fetch_add(grain, std::memory_order_relaxed);
      if (begin >= n) return;
      size_t end = std::min(n, begin + grain);
      try {
        for (size_t i = begin; i < end; ++i) fn(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(state->mu);
        if (!state->first_exception) {
          state->first_exception = std::current_exception();
        }
        state->failed.store(true, std::memory_order_relaxed);
        return;
      }
    }
  };

  for (size_t h = 0; h < helpers; ++h) {
    Submit([state, drain] {
      {
        std::lock_guard<std::mutex> lock(state->mu);
        if (state->closed) return;
        ++state->helpers_running;
      }
      drain();
      {
        std::lock_guard<std::mutex> lock(state->mu);
        --state->helpers_running;
      }
      state->cv.notify_all();
    });
  }

  drain();

  // The cursor is exhausted. Wait only for helpers already inside the
  // loop (each is bounded by the chunk it holds); stubs still queued
  // behind unrelated work become no-ops. The caller never runs a queued
  // task itself: a foreign task (say, a background flush waiting on a
  // lock or reader count the caller holds) could block it forever.
  std::unique_lock<std::mutex> lock(state->mu);
  state->closed = true;
  state->cv.wait(lock, [&state] { return state->helpers_running == 0; });
  if (state->first_exception) std::rethrow_exception(state->first_exception);
}

void ThreadPool::ParallelRanges(
    size_t n, const std::function<void(size_t, size_t)>& fn,
    size_t max_ranges) {
  if (n == 0) return;
  size_t parts = workers_.size() + 1;
  if (max_ranges > 0) parts = std::min(parts, max_ranges);
  parts = std::min(parts, n);
  if (parts <= 1 || tls_worker_pool == this) {
    fn(0, n);
    return;
  }
  const size_t chunk = (n + parts - 1) / parts;
  // Reuse the dynamic machinery with range-sized grains: each claimed
  // chunk is exactly one contiguous range.
  ParallelFor((n + chunk - 1) / chunk,
              [&fn, n, chunk](size_t part) {
                size_t begin = part * chunk;
                size_t end = std::min(n, begin + chunk);
                fn(begin, end);
              },
              {/*grain=*/1, /*max_parallelism=*/parts});
}

void ThreadPool::WorkerLoop() {
  tls_worker_pool = this;
  static obs::Histogram* task_nanos =
      obs::MetricsRegistry::Global().GetHistogram("pool.task_nanos",
                                                  obs::Unit::kNanos);
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_task_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    QueueDepthGauge()->Add(-1);
    const bool timed = obs::Enabled();
    Timer timer;
    try {
      task();
    } catch (...) {
      // Raw Submit() tasks have no caller left to rethrow into; dying
      // with a diagnostic beats the bare std::terminate an escaping
      // exception used to cause. ParallelFor wraps its work in its own
      // try/catch, so only contract violations reach this handler.
      std::fprintf(stderr,
                   "fcbench: ThreadPool task threw an exception; tasks "
                   "must be no-throw (see util/thread_pool.h)\n");
      std::terminate();
    }
    if (timed) task_nanos->Record(timer.ElapsedNanos());
    {
      std::unique_lock<std::mutex> lock(mu_);
      --inflight_;
      if (inflight_ == 0) cv_done_.notify_all();
    }
  }
}

}  // namespace fcbench

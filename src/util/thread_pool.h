#ifndef FCBENCH_UTIL_THREAD_POOL_H_
#define FCBENCH_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace fcbench {

/// Fixed-size worker pool used by the parallel compressors (pFPC,
/// bitshuffle, ndzip-CPU), the chunk-parallel `par-*` adapters, the SIMT
/// device simulator, and the scalability experiments of Tables 7/8.
///
/// Compression call paths must not construct pools (N thread spawns plus
/// teardown per Compress/Decompress call swamps the work being measured);
/// they use the process-wide `Shared()` pool instead. Dedicated pools
/// remain available for tests and for callers that own their lifecycle.
///
/// Task contract: tasks must not throw. An exception escaping a raw
/// `Submit()` task is caught in the worker, reported to stderr, and
/// terminates the process (deliberately — there is no caller left to
/// receive it). `ParallelFor`/`ParallelRanges` are stricter and safer:
/// the first exception thrown by `fn` is captured, remaining chunks are
/// abandoned, and the exception is rethrown on the calling thread once
/// every started helper has returned.
class ThreadPool {
 public:
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Process-wide pool, created on first use and sized by
  /// `DefaultThreads()`. Never destroyed (workers park in their condition
  /// wait until process exit), so it is safe to use from static-lifetime
  /// objects. Concurrent `ParallelFor` calls from different threads are
  /// supported: each call joins only its own work.
  static ThreadPool& Shared();

  /// Worker count the shared pool is (or would be) built with:
  /// FCBENCH_THREADS when set to a positive integer, else
  /// `std::thread::hardware_concurrency()`, clamped to at least 1.
  static int DefaultThreads();

  /// Resolves a CompressorConfig::threads value: a positive request is
  /// honoured as given (thread count can be wire-visible, e.g. pFPC's
  /// chunk directory, so it is never silently rewritten); zero/negative
  /// falls back to `DefaultThreads()` instead of a hardcoded constant that
  /// would oversubscribe small hosts.
  static int ResolveThreads(int configured);

  size_t num_threads() const { return workers_.size(); }

  /// Enqueues a task for asynchronous execution. See the class comment
  /// for the no-throw contract.
  void Submit(std::function<void()> task);

  /// Blocks until every submitted task has completed — including tasks
  /// submitted by other threads. Prefer ParallelFor/ParallelRanges on a
  /// shared pool; their completion tracking is per call.
  void Wait();

  /// Tuning knobs for ParallelFor.
  struct ForOptions {
    /// Indices handed to a worker per grab; 0 = automatic (about four
    /// chunks per participant, so uneven work still balances).
    size_t grain = 0;
    /// Upper bound on concurrent participants (including the calling
    /// thread); 0 = pool size + 1. Lets a caller honour a configured
    /// thread budget smaller than the pool.
    size_t max_parallelism = 0;
  };

  /// Runs fn(i) for i in [0, n) across the pool and waits for completion.
  /// Chunks of `grain` indices are claimed dynamically (atomic cursor), so
  /// unevenly-sized blocks do not leave workers idle. The calling thread
  /// participates in the work and, once the cursor is exhausted, waits
  /// only for helpers that already started; helper stubs still queued
  /// behind other work return without calling `fn` when they run. The
  /// caller never executes a queued task of its own or anyone else's, so
  /// a caller holding a lock cannot end up running a task that waits on
  /// it. When invoked from inside a task of this same
  /// pool, execution degrades to inline (serial) instead of deadlocking
  /// on the occupied workers.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn,
                   ForOptions options);
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
    ParallelFor(n, fn, ForOptions());
  }

  /// Splits [0, n) into at most `max_ranges` (0 = participant count)
  /// contiguous ranges and runs fn(begin, end) for each; waits for
  /// completion. Same reentrancy and exception behaviour as ParallelFor.
  void ParallelRanges(size_t n,
                      const std::function<void(size_t, size_t)>& fn,
                      size_t max_ranges = 0);

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mu_;
  std::condition_variable cv_task_;
  std::condition_variable cv_done_;
  size_t inflight_ = 0;
  bool stop_ = false;
};

}  // namespace fcbench

#endif  // FCBENCH_UTIL_THREAD_POOL_H_

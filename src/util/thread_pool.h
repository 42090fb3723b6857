// Persistent worker pool (leaf utility — no dependencies above util/).
//
// Used by both the engine layer (ReleaseEngine fans a batch's queries
// out over it) and the server layer (EngineHost shares one pool across
// tenants); it lives in util/ so neither layer has to reach into the
// other for it. A fresh-threads-per-batch design would pay tens of
// microseconds of syscall work per batch and stampede the scheduler
// under many tenants; this pool starts its workers once — they sleep on
// a mutex+condvar task queue and serve every caller's work for the
// lifetime of the process.
//
// Semantics:
//   * Submit(f) enqueues a callable and returns a std::future for its
//     result; Post(f) is the fire-and-forget variant (no future overhead).
//     TryPost(f) queues f only if a worker will run it, and otherwise
//     hands the work back to the caller (returns false).
//   * Shutdown() stops intake, drains every task already queued, and joins
//     the workers; it is idempotent and runs from the destructor.
//   * After Shutdown() — and on a pool constructed with zero threads —
//     Submit/Post run the task inline on the calling thread, so callers
//     never lose work or hang on a future that will not be fulfilled.
//
// The pool never blocks a caller that also executes work itself: see
// ReleaseEngine::ServeBatch, whose submitting thread drains its own batch
// queue alongside the pool ("caller participates"), which is what makes
// nested use (a batch task on the pool fanning its queries out to the
// same pool) deadlock-free.

#ifndef BLOWFISH_UTIL_THREAD_POOL_H_
#define BLOWFISH_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace blowfish {

class ThreadPool {
 public:
  /// Starts `num_threads` persistent workers. Zero is allowed and yields
  /// an inline executor (every task runs on the submitting thread).
  /// `metrics` names the registry the pool reports into (queue depth,
  /// task latency, task count); nullptr means the process-wide default.
  /// Handles are resolved here, once — the queue path touches only
  /// sharded atomics.
  explicit ThreadPool(size_t num_threads,
                      obs::MetricsRegistry* metrics = nullptr);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Equivalent to Shutdown().
  ~ThreadPool();

  /// Number of worker threads the pool was started with.
  size_t size() const { return workers_.size(); }

  /// Whether the calling thread is one of this pool's workers. Callers
  /// that might run on the pool use this to avoid blocking on a future
  /// of a task queued behind themselves (see EngineHost::ServeBatch).
  bool IsWorkerThread() const;

  /// Enqueues a fire-and-forget task.
  void Post(std::function<void()> task);

  /// Enqueues `task` for a worker and returns true. Returns false, and
  /// drops `task` unrun, where Post would run it inline (zero threads,
  /// or after Shutdown()): a task that re-posts itself loops instead,
  /// so a long chain never recurses.
  bool TryPost(std::function<void()> task);

  /// Enqueues a callable and returns a future for its result. The future
  /// also delivers exceptions thrown by the callable (the library itself
  /// is exception-free, but the pool does not swallow them).
  template <typename F>
  auto Submit(F&& f) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    // packaged_task is move-only; std::function requires copyable, so the
    // task rides in a shared_ptr.
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    std::future<R> result = task->get_future();
    Post([task]() { (*task)(); });
    return result;
  }

  /// Stops intake, drains all queued tasks, joins the workers. Idempotent.
  void Shutdown();

  /// Tasks executed so far (by workers or inline).
  uint64_t tasks_executed() const;

  /// Tasks currently waiting in the queue.
  size_t queue_depth() const;

 private:
  void WorkerLoop();

  /// Queues `task` (moving from it) unless the pool runs tasks inline.
  bool Enqueue(std::function<void()>& task);

  mutable std::mutex mu_;
  std::condition_variable wake_;
  std::deque<std::function<void()>> queue_;
  bool shutdown_ = false;
  /// Concurrent Shutdown calls: the first caller joins, later callers
  /// wait for joined_ (joining the same std::thread twice is UB).
  bool joining_ = false;
  bool joined_ = false;
  uint64_t executed_ = 0;
  /// Resolved once in the constructor; never null.
  obs::Gauge* queue_depth_gauge_;
  obs::Histogram* task_latency_us_;
  obs::Counter* tasks_total_;
  std::vector<std::thread> workers_;
  /// Worker thread ids; immutable after construction, so IsWorkerThread
  /// reads it without the lock.
  std::vector<std::thread::id> worker_ids_;
};

}  // namespace blowfish

#endif  // BLOWFISH_UTIL_THREAD_POOL_H_

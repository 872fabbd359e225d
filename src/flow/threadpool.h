#ifndef POL_FLOW_THREADPOOL_H_
#define POL_FLOW_THREADPOOL_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "obs/metrics.h"

// Fixed-size worker pool driving the dataflow engine. Tasks are
// fire-and-forget closures; Wait() blocks until everything submitted so
// far has finished. The pool is the only concurrency primitive in the
// library — Dataset operations express all parallelism through it.
//
// The pool is an instrumentation hot path, so its metric handles
// ("flow.pool.queue_depth" gauge, "flow.pool.tasks" counter,
// "flow.pool.task_seconds" / "flow.pool.queue_wait_seconds" histograms)
// are resolved once in the constructor; per-task recording is relaxed
// atomics plus two clock reads.

namespace pol::flow {

class ThreadPool {
 public:
  // `num_threads` <= 0 selects the hardware concurrency (at least 1).
  explicit ThreadPool(int num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Enqueues a task. Safe from any thread, including from inside tasks.
  void Submit(std::function<void()> task);

  // Blocks until the queue is empty and no task is running. Must not be
  // called from inside a task: the calling task counts as active, so
  // the wait could never finish. The precondition is enforced with a
  // POL_DCHECK (debug builds abort instead of deadlocking); use
  // ParallelFor for fan-out that is safe from inside tasks.
  void Wait();

  // True when the calling thread is one of this pool's workers — i.e.
  // the caller is executing inside a pool task.
  bool IsWorkerThread() const;

  // Runs `fn(i)` for i in [0, n) across the pool and returns when every
  // index has completed. The caller participates in the work, so the
  // call is safe from ANY thread — including from inside a pool task
  // (the stage runner drives whole pipeline stages as tasks) — and
  // multiple ParallelFor calls may run concurrently without waiting on
  // each other's work.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

  int num_threads() const { return static_cast<int>(workers_.size()); }

 private:
  // A queued task plus its enqueue timestamp (microseconds, obs clock)
  // so the worker can attribute queue-wait latency. The timestamp is 0
  // when observability is compiled out.
  struct PendingTask {
    std::function<void()> fn;
    uint64_t enqueue_micros = 0;
  };

  void WorkerLoop();

  Mutex mutex_;
  CondVar work_available_;
  CondVar all_done_;
  std::deque<PendingTask> queue_ POL_GUARDED_BY(mutex_);
  size_t active_ POL_GUARDED_BY(mutex_) = 0;
  bool shutting_down_ POL_GUARDED_BY(mutex_) = false;
  // Written only by the constructor; read lock-free thereafter.
  std::vector<std::thread> workers_;

  // Cached registry handles (stable pointers; dummies when disabled).
  obs::Gauge* queue_depth_metric_ = nullptr;
  obs::Counter* tasks_metric_ = nullptr;
  obs::Histogram* task_seconds_metric_ = nullptr;
  obs::Histogram* queue_wait_seconds_metric_ = nullptr;
};

}  // namespace pol::flow

#endif  // POL_FLOW_THREADPOOL_H_

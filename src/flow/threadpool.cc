#include "flow/threadpool.h"

#include <algorithm>
#include <atomic>
#include <functional>
#include <memory>
#include <thread>

#include "common/check.h"
#include "common/mutex.h"
#include "obs/clock.h"

namespace pol::flow {

ThreadPool::ThreadPool(int num_threads) {
  auto& registry = obs::Registry::Global();
  queue_depth_metric_ = registry.gauge("flow.pool.queue_depth");
  tasks_metric_ = registry.counter("flow.pool.tasks");
  task_seconds_metric_ = registry.histogram("flow.pool.task_seconds");
  queue_wait_seconds_metric_ =
      registry.histogram("flow.pool.queue_wait_seconds");
  if (num_threads <= 0) {
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(static_cast<size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mutex_);
    shutting_down_ = true;
  }
  work_available_.NotifyAll();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  PendingTask pending;
  pending.fn = std::move(task);
  pending.enqueue_micros = obs::NowMicros();
  {
    MutexLock lock(mutex_);
    queue_.push_back(std::move(pending));
    queue_depth_metric_->Set(static_cast<int64_t>(queue_.size()));
  }
  work_available_.NotifyOne();
}

bool ThreadPool::IsWorkerThread() const {
  // `workers_` is written only by the constructor, so scanning it
  // without the lock is safe for the pool's whole lifetime.
  const std::thread::id self = std::this_thread::get_id();
  for (const std::thread& worker : workers_) {
    if (worker.get_id() == self) return true;
  }
  return false;
}

void ThreadPool::Wait() {
  POL_DCHECK(!IsWorkerThread())
      << "ThreadPool::Wait() called from inside a pool task; this would "
         "deadlock (the calling task counts as active). Use ParallelFor "
         "for nested fan-out.";
  MutexLock lock(mutex_);
  while (!queue_.empty() || active_ != 0) all_done_.Wait(mutex_);
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  if (n == 1) {
    fn(0);
    return;
  }
  // Dynamic self-scheduling: runners pull the next index, which balances
  // skewed partition sizes. The caller is itself a runner and the wait
  // is on this call's own completion count, never on the global queue —
  // so the call makes progress even when every worker is busy (or when
  // the caller IS a worker, as with stages driven as pool tasks), and
  // concurrent ParallelFor calls do not serialize on one another.
  struct CallState {
    std::atomic<size_t> next{0};
    std::atomic<size_t> done{0};
    Mutex mutex;
    CondVar finished;
  };
  auto state = std::make_shared<CallState>();
  auto run = [state, n, &fn] {
    size_t completed = 0;
    for (size_t i = state->next.fetch_add(1); i < n;
         i = state->next.fetch_add(1)) {
      fn(i);
      ++completed;
    }
    return completed;
  };
  // Helpers beyond the caller; a helper that arrives after all indices
  // are claimed exits without touching `fn`.
  const size_t helpers =
      std::min(n - 1, static_cast<size_t>(num_threads()));
  for (size_t t = 0; t < helpers; ++t) {
    Submit([state, n, run] {
      const size_t completed = run();
      if (completed != 0 &&
          state->done.fetch_add(completed) + completed == n) {
        MutexLock lock(state->mutex);
        state->finished.NotifyAll();
      }
    });
  }
  const size_t completed = run();
  if (completed != 0) state->done.fetch_add(completed);
  MutexLock lock(state->mutex);
  while (state->done.load() != n) state->finished.Wait(state->mutex);
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    PendingTask task;
    {
      MutexLock lock(mutex_);
      while (!shutting_down_ && queue_.empty()) work_available_.Wait(mutex_);
      if (queue_.empty()) return;  // Shutting down.
      task = std::move(queue_.front());
      queue_.pop_front();
      ++active_;
      queue_depth_metric_->Set(static_cast<int64_t>(queue_.size()));
    }
    const uint64_t start_micros = obs::NowMicros();
    queue_wait_seconds_metric_->Record(
        static_cast<double>(start_micros - task.enqueue_micros) * 1e-6);
    task.fn();
    task_seconds_metric_->Record(
        static_cast<double>(obs::NowMicros() - start_micros) * 1e-6);
    tasks_metric_->Increment();
    {
      MutexLock lock(mutex_);
      --active_;
      if (queue_.empty() && active_ == 0) all_done_.NotifyAll();
    }
  }
}

}  // namespace pol::flow

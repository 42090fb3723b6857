#include "util/thread_pool.h"

namespace blowfish {

ThreadPool::ThreadPool(size_t num_threads, obs::MetricsRegistry* metrics) {
  if (metrics == nullptr) metrics = obs::MetricsRegistry::Global();
  queue_depth_gauge_ = metrics->GetGauge("pool_queue_depth");
  task_latency_us_ = metrics->GetHistogram("pool_task_latency_us");
  tasks_total_ = metrics->GetCounter("pool_tasks_total");
  workers_.reserve(num_threads);
  worker_ids_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this]() { WorkerLoop(); });
    worker_ids_.push_back(workers_.back().get_id());
  }
}

bool ThreadPool::IsWorkerThread() const {
  const std::thread::id self = std::this_thread::get_id();
  for (const std::thread::id& id : worker_ids_) {
    if (id == self) return true;
  }
  return false;
}

ThreadPool::~ThreadPool() { Shutdown(); }

bool ThreadPool::Enqueue(std::function<void()>& task) {
  std::lock_guard<std::mutex> lock(mu_);
  if (shutdown_ || workers_.empty()) return false;
  queue_.push_back(std::move(task));
  queue_depth_gauge_->Increment();
  // Notify under the lock: a worker observing shutdown_ between our
  // push and an unlocked notify could otherwise exit and strand the
  // task (Shutdown drains, so in practice only ordering matters).
  wake_.notify_one();
  return true;
}

bool ThreadPool::TryPost(std::function<void()> task) { return Enqueue(task); }

void ThreadPool::Post(std::function<void()> task) {
  if (Enqueue(task)) return;
  // Shut down or zero-threaded: run inline so the caller's future is
  // always fulfilled.
  {
    obs::ScopedLatencyTimer timer(task_latency_us_);
    task();
  }
  tasks_total_->Increment();
  std::lock_guard<std::mutex> lock(mu_);
  ++executed_;
}

void ThreadPool::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    wake_.wait(lock, [this]() { return shutdown_ || !queue_.empty(); });
    if (queue_.empty()) return;  // shutdown_ with a drained queue
    std::function<void()> task = std::move(queue_.front());
    queue_.pop_front();
    queue_depth_gauge_->Decrement();
    lock.unlock();
    {
      obs::ScopedLatencyTimer timer(task_latency_us_);
      task();
    }
    tasks_total_->Increment();
    lock.lock();
    ++executed_;
  }
}

void ThreadPool::Shutdown() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    shutdown_ = true;
    wake_.notify_all();
    if (joining_) {
      // Another caller is already joining the workers (e.g. an explicit
      // Shutdown racing the destructor). Joining the same std::thread
      // twice is UB, so wait for that caller to finish instead.
      wake_.wait(lock, [this]() { return joined_; });
      return;
    }
    joining_ = true;
  }
  for (std::thread& worker : workers_) worker.join();
  {
    std::lock_guard<std::mutex> lock(mu_);
    joined_ = true;
    // Notify while still holding the lock: a waiter in the branch above
    // may destroy the pool the moment it observes joined_, so nothing —
    // including this notify — may touch members after unlocking.
    wake_.notify_all();
  }
}

uint64_t ThreadPool::tasks_executed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return executed_;
}

size_t ThreadPool::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

}  // namespace blowfish

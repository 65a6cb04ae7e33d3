#include "runner/thread_pool.h"

#include <algorithm>

#include "util/check.h"

namespace cbtree {

ThreadPool::ThreadPool(int threads) {
  CBTREE_CHECK_GE(threads, 1);
  workers_.reserve(threads);
  for (int i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(&mu_);
    shutdown_ = true;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

size_t ThreadPool::queued() const {
  MutexLock lock(&mu_);
  return queue_.size();
}

int ThreadPool::DefaultJobs() {
  return std::max(1u, std::thread::hardware_concurrency());
}

void ThreadPool::Post(std::function<void()> task) {
  {
    MutexLock lock(&mu_);
    CBTREE_CHECK(!shutdown_);
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(&mu_);
      // Mutex::Wait keeps the capability held across the sleep as far as
      // the analysis can see, so the whole loop stays inside
      // -Wthread-safety (no escape hatch needed).
      while (!shutdown_ && queue_.empty()) mu_.Wait(&cv_);
      if (queue_.empty()) return;  // shutdown with a drained queue
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

}  // namespace cbtree

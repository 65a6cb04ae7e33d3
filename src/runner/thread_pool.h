// Fixed-size thread pool underlying the experiment runner.
//
// Dispatch is FIFO: workers begin tasks in submission order (with one
// worker, execution order equals submission order exactly). Results and
// exceptions travel through the std::future returned by Submit; a task
// given to Post has no future, and an exception escaping it ends the
// process. The destructor drains the queue — every task submitted before
// destruction runs to completion — and then joins the workers, so futures
// obtained from a pool are always eventually ready.

#ifndef CBTREE_RUNNER_THREAD_POOL_H_
#define CBTREE_RUNNER_THREAD_POOL_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <thread>
#include <type_traits>
#include <vector>

#include "base/mutex.h"
#include "base/thread_annotations.h"

namespace cbtree {

class ThreadPool {
 public:
  /// Spawns `threads` workers (must be >= 1).
  explicit ThreadPool(int threads);
  /// Runs all queued tasks to completion, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Tasks submitted but not yet started.
  size_t queued() const;

  /// Enqueues `fn` and returns a future for its result; an exception thrown
  /// by `fn` is rethrown by future.get(). Must not be called after the
  /// destructor has started.
  template <typename F>
  auto Submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> result = task->get_future();
    Post([task] { (*task)(); });
    return result;
  }

  /// Enqueues `task` with no future. An exception that escapes it is not
  /// caught: it ends the process (fail-stop). Must not be called after the
  /// destructor has started.
  void Post(std::function<void()> task);

  /// Worker count used when the caller does not pin one:
  /// std::thread::hardware_concurrency, at least 1.
  static int DefaultJobs();

 private:
  void WorkerLoop();

  mutable Mutex mu_;
  // _any: cbtree::Mutex is BasicLockable but not std::mutex.
  std::condition_variable_any cv_;
  std::deque<std::function<void()>> queue_ CBTREE_GUARDED_BY(mu_);
  bool shutdown_ CBTREE_GUARDED_BY(mu_) = false;
  std::vector<std::thread> workers_;
};

}  // namespace cbtree

#endif  // CBTREE_RUNNER_THREAD_POOL_H_

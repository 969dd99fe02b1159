#pragma once

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace smartflux {

/// Fixed-size worker pool. Tasks are plain callables; submit() returns a
/// future that either holds the task's completion or its exception.
/// Destruction drains the queue (pending tasks still run) and joins.
class ThreadPool {
 public:
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::future<void> submit(std::function<void()> task);

  /// Runs every task and blocks until all complete. The first exception (in
  /// task order) is rethrown after all tasks finished.
  ///
  /// Caller-participating: the calling thread drains the batch alongside up
  /// to thread_count() pool helpers, so run_all is safe to call from INSIDE
  /// a pool task (nested use — e.g. a workflow step issuing a sharded
  /// put_batch on the same pool). Even with every worker busy, the caller
  /// finishes its own batch and cannot deadlock waiting for itself.
  void run_all(std::vector<std::function<void()>> tasks);

  /// Calls fn(i) for every i in [0, n), dynamically scheduled: one task per
  /// worker pulls indices from a shared counter, so uneven per-index cost
  /// balances across the pool. Blocks until all indices ran; the first
  /// exception is rethrown (the throwing worker's remaining indices are
  /// skipped, other workers drain theirs).
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

  std::size_t thread_count() const noexcept { return workers_.size(); }

 private:
  void worker_loop();

  std::mutex mutex_;
  std::condition_variable wake_;
  std::deque<std::packaged_task<void()>> queue_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

/// The process-wide helper pool: hardware threads - 1 workers (at least
/// one), created on first use and never destroyed, so it outlives every
/// static that may still call into it at exit. Its callers fan short,
/// non-blocking work out with the caller-participating run_all (the sharded
/// store's per-shard sub-batch apply and WAL-family fsyncs), so using it
/// from inside another pool's task cannot deadlock. Shared rather than one
/// pool per user: the helpers stay few however many stores a process opens.
ThreadPool& helper_pool();

}  // namespace smartflux

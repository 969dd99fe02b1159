#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>

#include "common/error.h"

namespace smartflux {

ThreadPool::ThreadPool(std::size_t threads) {
  SF_CHECK(threads >= 1, "a thread pool needs at least one worker");
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  wake_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::packaged_task<void()> task;
    {
      std::unique_lock lock(mutex_);
      wake_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stopping_) return;
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();  // exceptions land in the associated future
  }
}

std::future<void> ThreadPool::submit(std::function<void()> task) {
  SF_CHECK(static_cast<bool>(task), "task must be callable");
  std::packaged_task<void()> packaged(std::move(task));
  auto future = packaged.get_future();
  {
    std::lock_guard lock(mutex_);
    SF_CHECK(!stopping_, "thread pool is shutting down");
    queue_.push_back(std::move(packaged));
  }
  wake_.notify_one();
  return future;
}

void ThreadPool::parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn) {
  SF_CHECK(static_cast<bool>(fn), "fn must be callable");
  if (n == 0) return;
  std::atomic<std::size_t> next{0};
  const std::size_t workers = std::min(n, thread_count());
  std::vector<std::function<void()>> tasks;
  tasks.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    // run_all blocks until every task finished, so capturing locals by
    // reference is safe.
    tasks.push_back([&next, &fn, n] {
      for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) fn(i);
    });
  }
  run_all(std::move(tasks));
}

void ThreadPool::run_all(std::vector<std::function<void()>> tasks) {
  if (tasks.empty()) return;
  // Shared batch state: the caller and the pool helpers all pull indices
  // from `next` until the batch is dry. The caller participating is what
  // makes nested run_all (called from inside a pool task) deadlock-free —
  // even if every worker is busy running the outer tasks, the caller drains
  // its own inner batch to completion.
  struct Batch {
    std::vector<std::function<void()>> tasks;
    std::vector<std::exception_ptr> errors;  ///< per task, for in-order rethrow
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
    std::mutex mutex;
    std::condition_variable all_done;
  };
  auto batch = std::make_shared<Batch>();
  batch->tasks = std::move(tasks);
  const std::size_t n = batch->tasks.size();
  batch->errors.resize(n);

  const auto run_one = [](Batch& b) -> bool {
    const std::size_t i = b.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= b.tasks.size()) return false;
    try {
      b.tasks[i]();
    } catch (...) {
      b.errors[i] = std::current_exception();
    }
    if (b.done.fetch_add(1, std::memory_order_acq_rel) + 1 == b.tasks.size()) {
      std::lock_guard lock(b.mutex);
      b.all_done.notify_all();
    }
    return true;
  };

  // Helpers never outnumber the remaining tasks (the caller takes one), and
  // they hold the batch alive via the shared_ptr — a helper scheduled after
  // the batch drained just exits.
  const std::size_t helpers = std::min(n - 1, thread_count());
  for (std::size_t h = 0; h < helpers; ++h) {
    submit([batch, run_one] {
      while (run_one(*batch)) {
      }
    });
  }
  while (run_one(*batch)) {
  }
  {
    std::unique_lock lock(batch->mutex);
    batch->all_done.wait(lock, [&] {
      return batch->done.load(std::memory_order_acquire) == n;
    });
  }
  for (const std::exception_ptr& error : batch->errors) {
    if (error) std::rethrow_exception(error);
  }
}

ThreadPool& helper_pool() {
  // Leaked on purpose: a static pool would be joined during exit while
  // other statics (a global store, a logger sink) may still fan out on it.
  static ThreadPool* const pool = [] {
    const unsigned hardware = std::thread::hardware_concurrency();
    return new ThreadPool(hardware > 1 ? hardware - 1 : 1);
  }();
  return *pool;
}

}  // namespace smartflux

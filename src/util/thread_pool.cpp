#include "util/thread_pool.h"

#include <algorithm>

namespace helcfl::util {

namespace {
// Each worker thread belongs to exactly one pool for its whole lifetime,
// so a plain thread_local index is unambiguous.
thread_local std::size_t tls_worker_index = ThreadPool::npos;
}  // namespace

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads <= 1) return;  // inline mode
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

std::size_t ThreadPool::worker_index() { return tls_worker_index; }

std::size_t ThreadPool::resolve_thread_count(std::size_t requested) {
  if (requested != 0) return requested;
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

void ThreadPool::worker_loop(std::size_t index) {
  tls_worker_index = index;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and fully drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();  // packaged_task captures any exception into its future
  }
}

}  // namespace helcfl::util

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
  pinned_.resize(num_threads);
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

std::vector<ThreadPool::Chunk> ThreadPool::partition_chunks(
    std::size_t total, std::size_t parts, std::size_t granularity) {
  std::vector<Chunk> chunks;
  if (total == 0 || parts == 0) return chunks;
  if (granularity == 0) granularity = 1;
  const std::size_t units = (total + granularity - 1) / granularity;
  const std::size_t count = std::min(parts, units);
  chunks.reserve(count);
  std::size_t unit = 0;
  for (std::size_t i = 0; i < count; ++i) {
    // First (units % count) chunks carry one extra unit: larger chunks first.
    const std::size_t take = units / count + (i < units % count ? 1 : 0);
    const Chunk chunk{unit * granularity,
                      std::min((unit + take) * granularity, total)};
    chunks.push_back(chunk);
    unit += take;
  }
  return chunks;
}

void ThreadPool::worker_loop(std::size_t index) {
  tls_worker_index = index;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      auto& mine = pinned_[index];
      cv_.wait(lock, [&] { return stopping_ || !mine.empty() || !queue_.empty(); });
      auto& from = mine.empty() ? queue_ : mine;
      if (from.empty()) return;  // stopping_ and fully drained
      task = std::move(from.front());
      from.pop_front();
    }
    task();  // packaged_task captures any exception into its future
  }
}

}  // namespace helcfl::util

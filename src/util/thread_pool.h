// Fixed-size worker pool used by the parallel round-execution engine.
//
// Design goals (DESIGN.md §7):
//   * deterministic orchestration — the pool itself has no work stealing
//     and no scheduling randomness; callers submit tasks and join their
//     futures in a caller-chosen order, so reductions stay reproducible;
//   * exception propagation — a task that throws stores the exception in
//     its future; future.get() rethrows on the submitting thread;
//   * graceful shutdown — the destructor drains every queued task before
//     joining, so submitted work is never silently dropped;
//   * inline fallback — a pool constructed with 0 or 1 threads spawns no
//     workers and runs submitted tasks inline on the calling thread,
//     making `num_threads = 1` byte-for-byte the sequential code path.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace helcfl::util {

class ThreadPool {
 public:
  /// Sentinel returned by worker_index() on non-worker threads.
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  /// Spawns `num_threads` workers; 0 or 1 means inline execution (no
  /// worker threads at all).
  explicit ThreadPool(std::size_t num_threads);

  /// Drains all queued tasks, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of spawned worker threads (0 in inline mode).
  std::size_t worker_count() const { return workers_.size(); }

  /// Index in [0, worker_count()) of the calling pool worker, or `npos`
  /// when called from a thread this pool does not own.  Lets callers keep
  /// per-worker scratch state (e.g. a model replica) without locking.
  static std::size_t worker_index();

  /// Maps the user-facing thread knob to a concrete worker count:
  /// 0 = auto (hardware_concurrency, at least 1), anything else verbatim.
  static std::size_t resolve_thread_count(std::size_t requested);

  /// Schedules `fn` and returns a future for its result.  In inline mode
  /// the task runs immediately on the calling thread; either way a throwing
  /// task surfaces its exception from future.get(), never std::terminate.
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using Result = std::invoke_result_t<std::decay_t<F>>;
    auto task = std::make_shared<std::packaged_task<Result()>>(std::forward<F>(fn));
    std::future<Result> future = task->get_future();
    if (workers_.empty()) {
      (*task)();  // inline fallback; exception lands in the future
      return future;
    }
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      queue_.emplace_back([task] { (*task)(); });
    }
    cv_.notify_one();
    return future;
  }

 private:
  void worker_loop(std::size_t index);

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

}  // namespace helcfl::util

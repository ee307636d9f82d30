#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace helcfl::util {
namespace {

TEST(ThreadPool, RunsEveryTaskUnderContention) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.worker_count(), 4u);

  constexpr std::size_t kTasks = 200;
  std::atomic<std::size_t> started{0};
  std::vector<std::future<std::size_t>> futures;
  futures.reserve(kTasks);
  for (std::size_t k = 0; k < kTasks; ++k) {
    futures.push_back(pool.submit([k, &started] {
      started.fetch_add(1, std::memory_order_relaxed);
      return k * k;
    }));
  }
  // Joining futures in submission order yields deterministic results even
  // though completion order across workers is arbitrary.
  for (std::size_t k = 0; k < kTasks; ++k) {
    EXPECT_EQ(futures[k].get(), k * k);
  }
  EXPECT_EQ(started.load(), kTasks);
}

TEST(ThreadPool, WorkerIndexIsStableAndInRange) {
  ThreadPool pool(3);
  std::vector<std::future<std::size_t>> futures;
  for (std::size_t k = 0; k < 64; ++k) {
    futures.push_back(pool.submit([] { return ThreadPool::worker_index(); }));
  }
  for (auto& future : futures) {
    const std::size_t index = future.get();
    EXPECT_LT(index, 3u);
  }
  // The submitting thread is not a pool worker.
  EXPECT_EQ(ThreadPool::worker_index(), ThreadPool::npos);
}

TEST(ThreadPool, ExceptionPropagatesThroughFuture) {
  ThreadPool pool(2);
  auto ok = pool.submit([] { return 41 + 1; });
  auto bad = pool.submit([]() -> int { throw std::runtime_error("task failed"); });
  EXPECT_EQ(ok.get(), 42);
  EXPECT_THROW(bad.get(), std::runtime_error);
  // The pool survives a throwing task and keeps accepting work.
  EXPECT_EQ(pool.submit([] { return 7; }).get(), 7);
}

TEST(ThreadPool, DestructionDrainsQueuedWork) {
  constexpr std::size_t kTasks = 32;
  std::atomic<std::size_t> completed{0};
  {
    ThreadPool pool(2);
    for (std::size_t k = 0; k < kTasks; ++k) {
      pool.submit([&completed] {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        completed.fetch_add(1, std::memory_order_relaxed);
      });
    }
    // Destructor must finish every queued task before joining.
  }
  EXPECT_EQ(completed.load(), kTasks);
}

TEST(ThreadPool, ZeroAndOneThreadDegradeToInlineExecution) {
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}}) {
    ThreadPool pool(n);
    EXPECT_EQ(pool.worker_count(), 0u);

    const std::thread::id caller = std::this_thread::get_id();
    auto future = pool.submit([caller] {
      // Inline mode runs on the submitting thread, outside any worker.
      EXPECT_EQ(std::this_thread::get_id(), caller);
      EXPECT_EQ(ThreadPool::worker_index(), ThreadPool::npos);
      return 123;
    });
    // The task already ran; get() must not block.
    EXPECT_EQ(future.wait_for(std::chrono::seconds(0)), std::future_status::ready);
    EXPECT_EQ(future.get(), 123);

    auto bad = pool.submit([]() -> int { throw std::invalid_argument("inline"); });
    EXPECT_THROW(bad.get(), std::invalid_argument);
  }
}

TEST(ThreadPool, ResolveThreadCount) {
  EXPECT_EQ(ThreadPool::resolve_thread_count(1), 1u);
  EXPECT_EQ(ThreadPool::resolve_thread_count(8), 8u);
  EXPECT_GE(ThreadPool::resolve_thread_count(0), 1u);  // auto
}

}  // namespace
}  // namespace helcfl::util

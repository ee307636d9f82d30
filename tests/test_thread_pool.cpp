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

TEST(ThreadPool, SubmitToRunsOnTheNamedWorker) {
  ThreadPool pool(4);
  std::vector<std::future<std::size_t>> futures;
  for (std::size_t k = 0; k < 64; ++k) {
    futures.push_back(pool.submit_to(k % 4, [] { return ThreadPool::worker_index(); }));
    // Shared tasks interleave with pinned ones without stealing them.
    (void)pool.submit([] { return ThreadPool::worker_index(); });
  }
  for (std::size_t k = 0; k < futures.size(); ++k) EXPECT_EQ(futures[k].get(), k % 4);
  // Inline mode ignores the pin and runs on the caller.
  ThreadPool inline_pool(1);
  EXPECT_EQ(inline_pool.submit_to(0, [] { return ThreadPool::worker_index(); }).get(),
            ThreadPool::npos);
}

TEST(ThreadPool, DestructionDrainsPinnedWork) {
  std::atomic<std::size_t> completed{0};
  {
    ThreadPool pool(2);
    for (std::size_t k = 0; k < 16; ++k) {
      pool.submit_to(k % 2, [&completed] {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        completed.fetch_add(1, std::memory_order_relaxed);
      });
    }
  }
  EXPECT_EQ(completed.load(), 16u);
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

/// Checks that `chunks` tiles [0, total) exactly, in order, with interior
/// boundaries on granularity multiples.
void expect_covers(const std::vector<ThreadPool::Chunk>& chunks,
                   std::size_t total, std::size_t granularity) {
  std::size_t cursor = 0;
  for (const auto& chunk : chunks) {
    EXPECT_EQ(chunk.begin, cursor);
    EXPECT_LT(chunk.begin, chunk.end);
    if (chunk.end != total) {
      EXPECT_EQ(chunk.end % granularity, 0u)
          << "interior boundary " << chunk.end << " off granularity";
    }
    cursor = chunk.end;
  }
  EXPECT_EQ(cursor, total);
}

TEST(ThreadPool, PartitionChunksCoversRangeOnGranularityBoundaries) {
  expect_covers(ThreadPool::partition_chunks(512, 4, 96), 512, 96);
  expect_covers(ThreadPool::partition_chunks(257, 4, 96), 257, 96);
  expect_covers(ThreadPool::partition_chunks(1000, 3, 1), 1000, 1);
  expect_covers(ThreadPool::partition_chunks(96, 4, 96), 96, 96);
  expect_covers(ThreadPool::partition_chunks(95, 4, 96), 95, 96);
}

TEST(ThreadPool, PartitionChunksNeverExceedsPartsAndShrinksWhenSmall) {
  EXPECT_EQ(ThreadPool::partition_chunks(512, 4, 96).size(), 4u);
  // 257 rows = 3 granularity units: only 3 of the 4 parts get work.
  EXPECT_EQ(ThreadPool::partition_chunks(257, 4, 96).size(), 3u);
  // A single unit cannot split at all.
  EXPECT_EQ(ThreadPool::partition_chunks(96, 4, 96).size(), 1u);
  EXPECT_EQ(ThreadPool::partition_chunks(1, 8, 96).size(), 1u);
}

TEST(ThreadPool, PartitionChunksHandlesEdgeCases) {
  EXPECT_TRUE(ThreadPool::partition_chunks(0, 4, 96).empty());
  // Granularity 0 behaves as 1.
  const auto unit = ThreadPool::partition_chunks(10, 3, 0);
  expect_covers(unit, 10, 1);
  EXPECT_EQ(unit.size(), 3u);
  // Larger chunks come first, sizes within one granularity unit.
  const auto chunks = ThreadPool::partition_chunks(512, 4, 96);
  for (std::size_t i = 1; i < chunks.size(); ++i) {
    EXPECT_GE(chunks[i - 1].end - chunks[i - 1].begin,
              chunks[i].end - chunks[i].begin);
  }
}

TEST(ThreadPool, PartitionChunksIsDeterministic) {
  const auto a = ThreadPool::partition_chunks(777, 5, 96);
  const auto b = ThreadPool::partition_chunks(777, 5, 96);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].begin, b[i].begin);
    EXPECT_EQ(a[i].end, b[i].end);
  }
}

}  // namespace
}  // namespace helcfl::util

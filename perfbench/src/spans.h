// In-memory span recorder for the traced run.
//
// A span is (id, parent, name, start, end) on the steady clock, plus the
// time actually spent inside the named calls (`busy_ns`), how many calls
// it covers, and a work count (FLOPs for nn spans).  A plain span covers
// one call and busy == end - start; a rollup span stands for every call of
// one name inside its parent (the svc hot loop makes thousands of calls per
// round), so start/end bracket the calls and busy sums them.
//
// Spans may be recorded from any thread: each thread appends to its own
// buffer, owned by the recorder, so recording takes no lock after a
// thread's first span.  Nothing is written until write_jsonl() at exit.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  const char* name = "";     ///< static string
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t busy_ns = 0;
  std::uint64_t calls = 1;
  double work = 0.0;
};

class SpanRecorder {
 public:
  SpanRecorder();
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  /// Nanoseconds since the recorder was created.
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  /// Reserves an id for a span that is still open (so children can name
  /// it as their parent before it ends).
  std::uint64_t next_id() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  /// Records a finished span (thread-safe).
  void record(const Span& span);

  /// The span that work started on other threads belongs to (the round
  /// phase currently open on the driving thread).
  void set_context(std::uint64_t id) { context_.store(id, std::memory_order_release); }
  std::uint64_t context() const { return context_.load(std::memory_order_acquire); }

  /// Every recorded span, ordered by start time.
  std::vector<Span> collect() const;

  /// Writes collect() as one JSON object per line.
  void write_jsonl(const std::string& path) const;

 private:
  struct Buffer {
    std::vector<Span> spans;
  };
  Buffer& local_buffer();

  const std::uint64_t instance_;
  const std::chrono::steady_clock::time_point epoch_;
  std::atomic<std::uint64_t> next_id_{1};
  std::atomic<std::uint64_t> context_{0};
  mutable std::mutex buffers_mutex_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

}  // namespace perfbench

// Monotonic-clock phase profiling for the round engine (`helcfl::obs`).
//
// A `PhaseProfiler` collects wall-clock spans — selection, frequency
// determination, parallel local training (per client and per pool worker),
// aggregation, evaluation — and aggregates them into per-phase summary
// statistics.  Spans can also be exported as a Chrome `trace_event` JSON
// (load in chrome://tracing or Perfetto) and, when a Tracer is attached,
// are mirrored as `phase` events into the JSONL stream.
//
// Wall-clock timing is inherently non-deterministic, but it only ever
// flows *out* of the simulation (into the profile report); no simulated
// quantity reads the clock, so profiling never perturbs training
// (DESIGN.md §9).  Recording is thread-safe: worker threads append spans
// under a mutex, tagged with their pool-worker index.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.h"

namespace helcfl::obs {

class PhaseProfiler;

/// RAII span: records the elapsed time between construction and
/// destruction into the profiler.  Constructed with a null profiler it is
/// inert, so call sites need no branching.  Movable, not copyable.
class ScopedSpan {
 public:
  /// Starts a span of `phase`.  `round` and `user` are optional labels
  /// (< 0 = not applicable); `level` is the TraceLevel of the mirrored
  /// `phase` event when a Tracer is attached to the profiler.
  ScopedSpan(PhaseProfiler* profiler, std::string_view phase,
             std::int64_t round = -1, std::int64_t user = -1,
             TraceLevel level = TraceLevel::kRound);

  ScopedSpan(ScopedSpan&& other) noexcept;
  ScopedSpan& operator=(ScopedSpan&& other) noexcept;
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Records the span (also called by the destructor; idempotent).
  void finish();

  ~ScopedSpan() { finish(); }

 private:
  PhaseProfiler* profiler_ = nullptr;  ///< null once finished
  std::string_view phase_;
  std::int64_t round_;
  std::int64_t user_;
  TraceLevel level_;
  std::chrono::steady_clock::time_point start_;
};

/// Aggregated statistics of one phase over the whole run.
struct PhaseStats {
  std::string phase;       ///< span name, e.g. "local_training"
  std::uint64_t count = 0; ///< spans recorded
  double total_s = 0.0;    ///< summed duration
  double min_s = 0.0;
  double max_s = 0.0;

  double mean_s() const {
    return count == 0 ? 0.0 : total_s / static_cast<double>(count);
  }
};

/// Thread-safe span collector; see the header comment.
class PhaseProfiler {
 public:
  /// `tracer` (optional, borrowed) mirrors every finished span as a
  /// `phase` JSONL event at the span's level.
  explicit PhaseProfiler(Tracer* tracer = nullptr);

  PhaseProfiler(const PhaseProfiler&) = delete;
  PhaseProfiler& operator=(const PhaseProfiler&) = delete;

  /// Convenience factory for a span of this profiler.
  ScopedSpan span(std::string_view phase, std::int64_t round = -1,
                  std::int64_t user = -1, TraceLevel level = TraceLevel::kRound) {
    return ScopedSpan(this, phase, round, user, level);
  }

  /// Records one finished span.  `start_us` is microseconds since the
  /// profiler's construction; `tid` 0 is the coordinator, 1..N pool
  /// workers.  Usually called by ScopedSpan, exposed for tests.
  void record(std::string_view phase, std::int64_t round, std::int64_t user,
              std::uint64_t start_us, std::uint64_t dur_us, std::uint32_t tid,
              TraceLevel level);

  /// Microseconds elapsed since construction (the span timebase).
  std::uint64_t now_us() const;

  std::size_t span_count() const;

  /// Per-phase aggregates, sorted by descending total time.
  std::vector<PhaseStats> summary() const;

  /// Fixed-width console table of summary() (the --profile report).
  std::string format_summary() const;

  /// Writes all spans as a Chrome trace_event JSON array ("X" complete
  /// events; ts/dur in microseconds, tid = pool worker index + 1, 0 for
  /// the coordinator).  Throws std::runtime_error on I/O failure.
  void write_chrome_trace(const std::string& path) const;

 private:
  struct SpanRecord {
    std::string phase;
    std::int64_t round;
    std::int64_t user;
    std::uint64_t start_us;
    std::uint64_t dur_us;
    std::uint32_t tid;
  };

  std::chrono::steady_clock::time_point epoch_;
  Tracer* tracer_;
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
};

}  // namespace helcfl::obs

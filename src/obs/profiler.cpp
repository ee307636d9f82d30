#include "obs/profiler.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "util/thread_pool.h"

namespace helcfl::obs {

namespace {

/// 0 = coordinator (or any non-pool thread), 1..N = pool worker index + 1.
std::uint32_t current_tid() {
  const std::size_t worker = util::ThreadPool::worker_index();
  return worker == util::ThreadPool::npos
             ? 0
             : static_cast<std::uint32_t>(worker + 1);
}

}  // namespace

ScopedSpan::ScopedSpan(PhaseProfiler* profiler, std::string_view phase,
                       std::int64_t round, std::int64_t user, TraceLevel level)
    : profiler_(profiler),
      phase_(phase),
      round_(round),
      user_(user),
      level_(level),
      start_(std::chrono::steady_clock::now()) {}

ScopedSpan::ScopedSpan(ScopedSpan&& other) noexcept
    : profiler_(other.profiler_),
      phase_(other.phase_),
      round_(other.round_),
      user_(other.user_),
      level_(other.level_),
      start_(other.start_) {
  other.profiler_ = nullptr;
}

ScopedSpan& ScopedSpan::operator=(ScopedSpan&& other) noexcept {
  if (this != &other) {
    finish();
    profiler_ = other.profiler_;
    phase_ = other.phase_;
    round_ = other.round_;
    user_ = other.user_;
    level_ = other.level_;
    start_ = other.start_;
    other.profiler_ = nullptr;
  }
  return *this;
}

void ScopedSpan::finish() {
  if (profiler_ == nullptr) return;
  PhaseProfiler* profiler = profiler_;
  profiler_ = nullptr;
  const auto end = std::chrono::steady_clock::now();
  const auto dur_us = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(end - start_).count());
  const std::uint64_t end_us = profiler->now_us();
  const std::uint64_t start_us = end_us >= dur_us ? end_us - dur_us : 0;
  profiler->record(phase_, round_, user_, start_us, dur_us, current_tid(), level_);
}

PhaseProfiler::PhaseProfiler(Tracer* tracer)
    : epoch_(std::chrono::steady_clock::now()), tracer_(tracer) {}

std::uint64_t PhaseProfiler::now_us() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

void PhaseProfiler::record(std::string_view phase, std::int64_t round,
                           std::int64_t user, std::uint64_t start_us,
                           std::uint64_t dur_us, std::uint32_t tid,
                           TraceLevel level) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back({std::string(phase), round, user, start_us, dur_us, tid});
  }
  if (tracer_ != nullptr && tracer_->enabled(level)) {
    if (user >= 0) {
      tracer_->emit(level, "phase",
                    {{"phase", phase},
                     {"round", round},
                     {"user", user},
                     {"tid", tid},
                     {"start_us", start_us},
                     {"dur_us", dur_us}});
    } else {
      tracer_->emit(level, "phase",
                    {{"phase", phase},
                     {"round", round},
                     {"tid", tid},
                     {"start_us", start_us},
                     {"dur_us", dur_us}});
    }
  }
}

std::size_t PhaseProfiler::span_count() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

std::vector<PhaseStats> PhaseProfiler::summary() const {
  std::vector<PhaseStats> stats;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const SpanRecord& span : spans_) {
      const double dur_s = static_cast<double>(span.dur_us) * 1e-6;
      auto it = std::find_if(stats.begin(), stats.end(), [&](const PhaseStats& s) {
        return s.phase == span.phase;
      });
      if (it == stats.end()) {
        stats.push_back({span.phase, 1, dur_s, dur_s, dur_s});
      } else {
        ++it->count;
        it->total_s += dur_s;
        it->min_s = std::min(it->min_s, dur_s);
        it->max_s = std::max(it->max_s, dur_s);
      }
    }
  }
  std::stable_sort(stats.begin(), stats.end(),
                   [](const PhaseStats& a, const PhaseStats& b) {
                     return a.total_s > b.total_s;
                   });
  return stats;
}

std::string PhaseProfiler::format_summary() const {
  const std::vector<PhaseStats> stats = summary();
  std::string out =
      "phase                       count     total      mean       min       max\n";
  char line[160];
  for (const PhaseStats& s : stats) {
    std::snprintf(line, sizeof(line),
                  "%-24s %8llu %8.3fs %8.3fms %7.3fms %7.3fms\n", s.phase.c_str(),
                  static_cast<unsigned long long>(s.count), s.total_s,
                  s.mean_s() * 1e3, s.min_s * 1e3, s.max_s * 1e3);
    out += line;
  }
  return out;
}

void PhaseProfiler::write_chrome_trace(const std::string& path) const {
  std::ofstream file(path, std::ios::trunc);
  if (!file.is_open()) {
    throw std::runtime_error("PhaseProfiler: cannot open '" + path + "'");
  }
  file << "{\"traceEvents\":[";
  const std::lock_guard<std::mutex> lock(mutex_);
  bool first = true;
  for (const SpanRecord& span : spans_) {
    if (!first) file << ",";
    first = false;
    file << "\n{\"name\":\"" << span.phase << "\",\"ph\":\"X\",\"pid\":0,\"tid\":"
         << span.tid << ",\"ts\":" << span.start_us << ",\"dur\":" << span.dur_us
         << ",\"args\":{\"round\":" << span.round << ",\"user\":" << span.user
         << "}}";
  }
  file << "\n]}\n";
  if (!file.good()) {
    throw std::runtime_error("PhaseProfiler: write to '" + path + "' failed");
  }
}

}  // namespace helcfl::obs

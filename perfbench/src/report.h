// What a workload hands back to main(): named metrics with units and
// sample counts, the attempted/failed operation counts, and the output
// checks that failed.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Set-ups timed per untraced run; setup_s is their median.
constexpr std::size_t kSetupRepeats = 9;

inline double seconds_between(std::chrono::steady_clock::time_point a,
                              std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Knobs shared by every workload.
struct RunSettings {
  std::uint64_t seed = 1;
  double seconds = 10.0;     ///< measurement window of an untraced run
  std::string out_dir;       ///< where traced runs write their spans
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;  ///< observations behind the value (0 = one)
};

struct Report {
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failed_checks;

  void add(std::string name, double value, std::string unit, std::size_t samples = 0) {
    metrics.push_back({std::move(name), value, std::move(unit), samples});
  }

  /// Records an output check; a failed check also counts as a failed
  /// operation.
  void check(bool ok, const std::string& what) {
    if (ok) return;
    failed_checks.push_back(what);
    ++failed;
  }

  /// Appends another report's metrics, counts and checks.
  void merge(const Report& other) {
    metrics.insert(metrics.end(), other.metrics.begin(), other.metrics.end());
    attempted += other.attempted;
    failed += other.failed;
    failed_checks.insert(failed_checks.end(), other.failed_checks.begin(),
                         other.failed_checks.end());
  }
};

/// Untraced runs: the end-to-end metrics of one workload.
Report run_sync_cnn(const RunSettings& settings);
Report run_async_mlp(const RunSettings& settings);
Report run_svc_tcp(const RunSettings& settings);

/// Traced runs: one untraced and one traced pass of a workload, the
/// per-layer metrics measured on it, and the traced-equals-untraced checks.
Report trace_sync_cnn(const RunSettings& settings);
Report trace_async_mlp(const RunSettings& settings);
Report trace_svc_tcp(const RunSettings& settings);

}  // namespace perfbench

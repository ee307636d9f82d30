// Summary statistics of the benchmark: percentiles that carry their sample
// count, quartiles with the same definition as Python's
// statistics.quantiles(values, n=4), throughput over measured windows, and
// the process's peak resident set from /proc/self/status.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <string_view>

namespace perfbench {

/// A percentile together with the number of samples it was taken over.
struct Percentile {
  double value = 0.0;
  std::size_t samples = 0;
};

/// Linear-interpolated percentile (util::percentile), p in [0, 100].
/// Throws std::invalid_argument on an empty sample set.
Percentile percentile(std::span<const double> values, double p);

/// First quartile, median and third quartile.
struct Quartiles {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
};

/// Python's statistics.quantiles(values, n=4) (method "exclusive").
/// One value gives that value for all three; throws on an empty set.
Quartiles quartiles(std::span<const double> values);

/// Throughput over disjoint measured windows: total work over the total
/// time spent inside the windows, so time outside them never dilutes it.
class RateWindow {
 public:
  /// Adds one window that completed `count` units in `seconds`.
  /// Throws std::invalid_argument on a negative count or duration.
  void add(double count, double seconds);

  std::size_t windows() const { return windows_; }
  double count() const { return count_; }
  double seconds() const { return seconds_; }
  /// count / seconds; 0 when no time was measured.
  double rate() const { return seconds_ > 0.0 ? count_ / seconds_ : 0.0; }

 private:
  std::size_t windows_ = 0;
  double count_ = 0.0;
  double seconds_ = 0.0;
};

/// The VmHWM line of a /proc/<pid>/status text, in KiB; nullopt when the
/// line is missing or malformed.
std::optional<double> parse_vmhwm_kib(std::string_view status_text);

/// This process's VmHWM in MiB; nullopt where /proc is unavailable.
std::optional<double> peak_rss_mib();
}  // namespace perfbench

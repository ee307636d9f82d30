#include "stats.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/stats.h"

namespace perfbench {

Percentile percentile(std::span<const double> values, double p) {
  if (values.empty()) throw std::invalid_argument("percentile: no samples");
  if (!(p >= 0.0 && p <= 100.0)) throw std::invalid_argument("percentile: p outside [0, 100]");
  return {helcfl::util::percentile(values, p), values.size()};
}

Quartiles quartiles(std::span<const double> values) {
  if (values.empty()) throw std::invalid_argument("quartiles: no samples");
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  const std::size_t n = sorted.size();
  if (n == 1) return {sorted[0], sorted[0], sorted[0]};
  // statistics.quantiles, method="exclusive": the i-th cut point sits at
  // position i * (n + 1) / 4 (1-based) between the neighbours j and j + 1,
  // with j clamped to [1, n - 1] and the weight taken after the clamp, so
  // small samples extrapolate exactly as Python does.
  const auto cut = [&](long long i) {
    const auto count = static_cast<long long>(n);
    const long long m = count + 1;
    const long long j = std::clamp(i * m / 4, 1LL, count - 1);
    const long long delta = i * m - j * 4;
    const auto lo = static_cast<std::size_t>(j - 1);
    return (sorted[lo] * static_cast<double>(4 - delta) +
            sorted[lo + 1] * static_cast<double>(delta)) /
           4.0;
  };
  return {cut(1), cut(2), cut(3)};
}

void RateWindow::add(double count, double seconds) {
  if (count < 0.0 || seconds < 0.0) {
    throw std::invalid_argument("RateWindow::add: negative count or duration");
  }
  ++windows_;
  count_ += count;
  seconds_ += seconds;
}

std::optional<double> parse_vmhwm_kib(std::string_view status_text) {
  constexpr std::string_view kKey = "VmHWM:";
  std::size_t pos = 0;
  while (pos < status_text.size()) {
    const std::size_t end = std::min(status_text.find('\n', pos), status_text.size());
    std::string_view line = status_text.substr(pos, end - pos);
    pos = end + 1;
    if (!line.starts_with(kKey)) continue;
    line.remove_prefix(kKey.size());
    while (!line.empty() && std::isspace(static_cast<unsigned char>(line.front()))) {
      line.remove_prefix(1);
    }
    double kib = 0.0;
    const auto [rest, ec] = std::from_chars(line.data(), line.data() + line.size(), kib);
    if (ec != std::errc{} || kib < 0.0) return std::nullopt;
    std::string_view unit(rest, static_cast<std::size_t>(line.data() + line.size() - rest));
    while (!unit.empty() && std::isspace(static_cast<unsigned char>(unit.front()))) {
      unit.remove_prefix(1);
    }
    while (!unit.empty() && std::isspace(static_cast<unsigned char>(unit.back()))) {
      unit.remove_suffix(1);
    }
    if (unit != "kB") return std::nullopt;
    return kib;
  }
  return std::nullopt;
}

std::optional<double> peak_rss_mib() {
  std::ifstream in("/proc/self/status");
  if (!in) return std::nullopt;
  std::ostringstream text;
  text << in.rdbuf();
  const std::optional<double> kib = parse_vmhwm_kib(text.str());
  if (!kib) return std::nullopt;
  return *kib / 1024.0;
}

}  // namespace perfbench

// Tests of the benchmark's statistics: percentile with sample count,
// quartiles as Python's statistics.quantiles(n=4) gives them, rate windows,
// and VmHWM parsing.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "stats.h"

namespace perfbench {
namespace {

TEST(Percentile, InterpolatesAndCountsSamples) {
  const std::vector<double> values = {4.0, 1.0, 3.0, 2.0};
  const Percentile p50 = percentile(values, 50.0);
  EXPECT_DOUBLE_EQ(p50.value, 2.5);
  EXPECT_EQ(p50.samples, 4U);
  EXPECT_DOUBLE_EQ(percentile(values, 0.0).value, 1.0);
  EXPECT_DOUBLE_EQ(percentile(values, 100.0).value, 4.0);
  EXPECT_DOUBLE_EQ(percentile(values, 95.0).value, 3.85);
}

TEST(Percentile, SingleSampleAndEmpty) {
  const std::vector<double> one = {7.0};
  EXPECT_DOUBLE_EQ(percentile(one, 99.0).value, 7.0);
  EXPECT_EQ(percentile(one, 99.0).samples, 1U);
  EXPECT_THROW(percentile(std::vector<double>{}, 50.0), std::invalid_argument);
  EXPECT_THROW(percentile(one, 101.0), std::invalid_argument);
}

// Expected values are Python 3.11's statistics.quantiles(values, n=4).
TEST(Quartiles, MatchPythonExclusiveMethod) {
  const std::vector<double> ten = {10, 9, 8, 7, 6, 5, 4, 3, 2, 1};
  const Quartiles q = quartiles(ten);
  EXPECT_DOUBLE_EQ(q.q1, 2.75);
  EXPECT_DOUBLE_EQ(q.median, 5.5);
  EXPECT_DOUBLE_EQ(q.q3, 8.25);

  const Quartiles five = quartiles(std::vector<double>{1, 2, 3, 4, 5});
  EXPECT_DOUBLE_EQ(five.q1, 1.5);
  EXPECT_DOUBLE_EQ(five.median, 3.0);
  EXPECT_DOUBLE_EQ(five.q3, 4.5);
}

TEST(Quartiles, SmallSamplesExtrapolateLikePython) {
  const Quartiles two = quartiles(std::vector<double>{1, 2});
  EXPECT_DOUBLE_EQ(two.q1, 0.75);
  EXPECT_DOUBLE_EQ(two.median, 1.5);
  EXPECT_DOUBLE_EQ(two.q3, 2.25);

  const Quartiles one = quartiles(std::vector<double>{3});
  EXPECT_DOUBLE_EQ(one.q1, 3.0);
  EXPECT_DOUBLE_EQ(one.q3, 3.0);
  EXPECT_THROW(quartiles(std::vector<double>{}), std::invalid_argument);
}

TEST(RateWindow, DividesTotalsNotMeanOfRates) {
  RateWindow window;
  EXPECT_DOUBLE_EQ(window.rate(), 0.0);
  window.add(100.0, 1.0);
  window.add(300.0, 1.0);
  window.add(0.0, 2.0);
  EXPECT_EQ(window.windows(), 3U);
  EXPECT_DOUBLE_EQ(window.count(), 400.0);
  EXPECT_DOUBLE_EQ(window.seconds(), 4.0);
  EXPECT_DOUBLE_EQ(window.rate(), 100.0);
}

TEST(RateWindow, RejectsNegativeInput) {
  RateWindow window;
  EXPECT_THROW(window.add(-1.0, 1.0), std::invalid_argument);
  EXPECT_THROW(window.add(1.0, -1.0), std::invalid_argument);
  EXPECT_EQ(window.windows(), 0U);
}

TEST(VmHwm, ParsesStatusText) {
  const char* status =
      "Name:\tperfbench\n"
      "VmPeak:\t  123456 kB\n"
      "VmHWM:\t   34816 kB\n"
      "VmRSS:\t   30000 kB\n";
  const auto kib = parse_vmhwm_kib(status);
  ASSERT_TRUE(kib.has_value());
  EXPECT_DOUBLE_EQ(*kib, 34816.0);
  EXPECT_DOUBLE_EQ(*parse_vmhwm_kib("VmHWM: 10 kB"), 10.0);
}

TEST(VmHwm, RejectsMissingOrMalformedLines) {
  EXPECT_FALSE(parse_vmhwm_kib("").has_value());
  EXPECT_FALSE(parse_vmhwm_kib("VmRSS:\t 100 kB\n").has_value());
  EXPECT_FALSE(parse_vmhwm_kib("VmHWM:\t abc kB\n").has_value());
  EXPECT_FALSE(parse_vmhwm_kib("VmHWM:\t 100 MB\n").has_value());
  EXPECT_FALSE(parse_vmhwm_kib("XVmHWM:\t 100 kB\n").has_value());
}

TEST(VmHwm, ThisProcessHasAPeak) {
  const auto mib = peak_rss_mib();
  ASSERT_TRUE(mib.has_value());
  EXPECT_GT(*mib, 0.0);
}

}  // namespace
}  // namespace perfbench

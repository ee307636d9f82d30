#include "nn/pool.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "gradcheck.h"
#include "oracles/reference_pool.h"
#include "util/rng.h"

namespace helcfl::nn {
namespace {

using tensor::Shape;
using tensor::Tensor;

TEST(MaxPool2D, OutputShape) {
  MaxPool2D pool(2, 2);
  const Tensor y = pool.forward(Tensor(Shape{2, 3, 8, 8}), false);
  EXPECT_EQ(y.shape(), Shape({2, 3, 4, 4}));
}

TEST(MaxPool2D, OddExtentFloors) {
  MaxPool2D pool(2, 2);
  const Tensor y = pool.forward(Tensor(Shape{1, 1, 5, 5}), false);
  EXPECT_EQ(y.shape(), Shape({1, 1, 2, 2}));
}

TEST(MaxPool2D, PicksWindowMaximum) {
  MaxPool2D pool(2, 2);
  Tensor x(Shape{1, 1, 2, 2}, {1.0F, 5.0F, 3.0F, 2.0F});
  const Tensor y = pool.forward(x, false);
  EXPECT_EQ(y.size(), 1u);
  EXPECT_FLOAT_EQ(y[0], 5.0F);
}

TEST(MaxPool2D, HandlesNegativeValues) {
  MaxPool2D pool(2, 2);
  Tensor x(Shape{1, 1, 2, 2}, {-4.0F, -1.0F, -3.0F, -2.0F});
  const Tensor y = pool.forward(x, false);
  EXPECT_FLOAT_EQ(y[0], -1.0F);
}

TEST(MaxPool2D, BackwardRoutesGradientToArgmax) {
  MaxPool2D pool(2, 2);
  Tensor x(Shape{1, 1, 2, 2}, {1.0F, 5.0F, 3.0F, 2.0F});
  (void)pool.forward(x, true);
  Tensor dy(Shape{1, 1, 1, 1}, {7.0F});
  const Tensor dx = pool.backward(dy);
  EXPECT_FLOAT_EQ(dx[0], 0.0F);
  EXPECT_FLOAT_EQ(dx[1], 7.0F);
  EXPECT_FLOAT_EQ(dx[2], 0.0F);
  EXPECT_FLOAT_EQ(dx[3], 0.0F);
}

TEST(MaxPool2D, TiesRouteToTheFirstMaximum) {
  MaxPool2D pool(2, 2);
  Tensor x(Shape{1, 1, 2, 2}, {1.0F, 3.0F, 3.0F, 3.0F});
  (void)pool.forward(x, true);
  const Tensor dx = pool.backward(Tensor(Shape{1, 1, 1, 1}, {7.0F}));
  EXPECT_FLOAT_EQ(dx[1], 7.0F);
  EXPECT_FLOAT_EQ(dx[2], 0.0F);
  EXPECT_FLOAT_EQ(dx[3], 0.0F);
}

TEST(MaxPool2D, NanIsNeverTheMaximum) {
  MaxPool2D pool(2, 2);
  const float nan = std::numeric_limits<float>::quiet_NaN();
  Tensor x(Shape{1, 1, 2, 2}, {nan, -2.0F, nan, -1.0F});
  const Tensor y = pool.forward(x, true);
  EXPECT_FLOAT_EQ(y[0], -1.0F);
  const Tensor dx = pool.backward(Tensor(Shape{1, 1, 1, 1}, {7.0F}));
  EXPECT_FLOAT_EQ(dx[3], 7.0F);
  EXPECT_FLOAT_EQ(dx[0] + dx[1] + dx[2], 0.0F);
}

TEST(MaxPool2D, WindowWithoutFiniteMaxRoutesGradientToItsOwnInput) {
  // A window of only -inf (or NaN) outputs -inf; its gradient must land on
  // the window's first element, not on element 0 of the whole tensor.
  MaxPool2D pool(2, 2);
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  Tensor x(Shape{3, 1, 2, 2}, {1.0F, 5.0F, 3.0F, 2.0F,  //
                               -inf, -inf, -inf, -inf,  //
                               nan, nan, nan, nan});
  const Tensor y = pool.forward(x, true);
  EXPECT_FLOAT_EQ(y[0], 5.0F);
  EXPECT_EQ(y[1], -inf);
  EXPECT_EQ(y[2], -inf);
  const Tensor dx = pool.backward(Tensor(Shape{3, 1, 1, 1}, {7.0F, 5.0F, 3.0F}));
  const float want[] = {0.0F, 7.0F, 0.0F, 0.0F, 5.0F, 0.0F, 0.0F, 0.0F,
                        3.0F, 0.0F, 0.0F, 0.0F};
  for (std::size_t i = 0; i < 12; ++i) EXPECT_EQ(dx[i], want[i]) << "element " << i;
}

TEST(MaxPool2D, RejectsRank2Input) {
  MaxPool2D pool(2, 2);
  EXPECT_THROW(pool.forward(Tensor(Shape{2, 4}), false), std::invalid_argument);
}

TEST(MaxPool2D, RejectsWindowLargerThanInput) {
  MaxPool2D pool(4, 4);
  EXPECT_THROW(pool.forward(Tensor(Shape{1, 1, 3, 3}), false), std::invalid_argument);
}

TEST(MaxPool2D, RejectsZeroKernel) {
  EXPECT_THROW(MaxPool2D(0, 1), std::invalid_argument);
  EXPECT_THROW(MaxPool2D(2, 0), std::invalid_argument);
}

TEST(MaxPool2D, GradientCheck) {
  MaxPool2D pool(2, 2);
  // Distinct values keep the argmax stable under the finite-difference step.
  Tensor x(Shape{1, 2, 4, 4});
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = static_cast<float>((i * 7919) % 97) / 10.0F;
  }
  testing::check_gradients(pool, x);
}

// ---------------------------------------------------------------------------
// The 2x2/stride-2 vector path and the general loop against the one-window-
// at-a-time oracle (tests/oracles/reference_pool), bit for bit.

std::vector<std::uint32_t> bits(const Tensor& t) {
  std::vector<std::uint32_t> out(t.size());
  for (std::size_t i = 0; i < t.size(); ++i) out[i] = std::bit_cast<std::uint32_t>(t[i]);
  return out;
}

/// Four planes a sample, each with its own hazards: specials (+-0, NaN,
/// -inf, +inf, repeats), only -inf and NaN (every window without a finite
/// maximum), two-valued ties, and plain normals.
Tensor hazard_input(std::size_t batch, std::size_t h, std::size_t w, std::uint64_t seed) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float specials[] = {0.0F, -0.0F, nan, -inf, inf, 1.0F, 1.0F, -1.0F, 0.5F};
  util::Rng rng(seed);
  Tensor x(Shape{batch, 4, h, w});
  const std::size_t area = h * w;
  for (std::size_t i = 0; i < x.size(); ++i) {
    switch (i / area % 4) {
      case 0: x[i] = specials[rng.uniform_int(0, 8)]; break;
      case 1: x[i] = rng.bernoulli(0.5) ? -inf : nan; break;
      case 2: x[i] = rng.bernoulli(0.5) ? 2.0F : -0.0F; break;
      default: x[i] = static_cast<float>(rng.normal()); break;
    }
  }
  return x;
}

void expect_pool_matches_reference(std::size_t kernel, std::size_t stride) {
  std::uint64_t seed = 1000 * kernel + stride;
  for (std::size_t h = kernel; h <= kernel + 3; ++h) {
    for (std::size_t w = kernel; w <= 19; ++w) {
      SCOPED_TRACE("k=" + std::to_string(kernel) + " s=" + std::to_string(stride) +
                   " in=" + std::to_string(h) + "x" + std::to_string(w));
      const Tensor x = hazard_input(2, h, w, seed++);
      MaxPool2D pool(kernel, stride);
      const Tensor y = pool.forward(x, true);
      Tensor dy = testing::random_input(y.shape(), seed++);
      const ReferencePoolResult want = reference_max_pool(x, kernel, stride, dy);
      ASSERT_EQ(y.shape(), want.output.shape());
      EXPECT_EQ(bits(y), bits(want.output)) << "training forward";
      EXPECT_EQ(bits(pool.backward(dy)), bits(want.grad_input)) << "routed gradient";
      EXPECT_EQ(bits(pool.forward(x, false)), bits(want.output)) << "inference forward";
    }
  }
}

TEST(MaxPool2D, TwoByTwoStrideTwoMatchesReferenceBitwise) {
  expect_pool_matches_reference(2, 2);
}

TEST(MaxPool2D, OtherWindowsMatchReferenceBitwise) {
  expect_pool_matches_reference(3, 2);
  expect_pool_matches_reference(2, 1);
}

// backward() checks its argument in every build type.

TEST(MaxPool2D, BackwardRejectsMismatchedGradShape) {
  MaxPool2D pool(2, 2);
  (void)pool.forward(Tensor(Shape{2, 3, 8, 8}), true);
  EXPECT_THROW(pool.backward(Tensor(Shape{4, 3, 4, 4})), std::invalid_argument);
  EXPECT_THROW(pool.backward(Tensor(Shape{2, 3, 4, 5})), std::invalid_argument);
  EXPECT_THROW(MaxPool2D(2, 2).backward(Tensor(Shape{2, 3, 4, 4})), std::logic_error);
}

TEST(GlobalAvgPool2D, BackwardRejectsMismatchedGradShape) {
  GlobalAvgPool2D pool;
  (void)pool.forward(Tensor(Shape{2, 3, 4, 4}), true);
  EXPECT_THROW(pool.backward(Tensor(Shape{4, 3})), std::invalid_argument);
  EXPECT_THROW(GlobalAvgPool2D().backward(Tensor(Shape{2, 3})), std::logic_error);
}

TEST(GlobalAvgPool2D, OutputShape) {
  GlobalAvgPool2D pool;
  const Tensor y = pool.forward(Tensor(Shape{3, 5, 4, 4}), false);
  EXPECT_EQ(y.shape(), Shape({3, 5}));
}

TEST(GlobalAvgPool2D, ComputesMean) {
  GlobalAvgPool2D pool;
  Tensor x(Shape{1, 1, 2, 2}, {1.0F, 2.0F, 3.0F, 6.0F});
  const Tensor y = pool.forward(x, false);
  EXPECT_FLOAT_EQ(y[0], 3.0F);
}

TEST(GlobalAvgPool2D, PerChannelMeans) {
  GlobalAvgPool2D pool;
  Tensor x(Shape{1, 2, 1, 2}, {1.0F, 3.0F, 10.0F, 20.0F});
  const Tensor y = pool.forward(x, false);
  EXPECT_FLOAT_EQ(y.at(0, 0), 2.0F);
  EXPECT_FLOAT_EQ(y.at(0, 1), 15.0F);
}

TEST(GlobalAvgPool2D, BackwardSpreadsGradientEvenly) {
  GlobalAvgPool2D pool;
  Tensor x(Shape{1, 1, 2, 2});
  (void)pool.forward(x, true);
  Tensor dy(Shape{1, 1}, {8.0F});
  const Tensor dx = pool.backward(dy);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(dx[i], 2.0F);
}

TEST(GlobalAvgPool2D, RejectsRank2Input) {
  GlobalAvgPool2D pool;
  EXPECT_THROW(pool.forward(Tensor(Shape{2, 4}), false), std::invalid_argument);
}

TEST(GlobalAvgPool2D, EveryShapeMatchesTheScalarSumBitwise) {
  // Planes are summed four at a time; each must still be the one-plane
  // double sum in ascending order, divided by the area.  Plane q draws its
  // specials from the first 6 + 2 * (q % 4) hazards, so some planes stay
  // finite (+-0, subnormals), some add +inf, some +-inf, some NaN.
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float tiny = std::numeric_limits<float>::denorm_min();
  const float special[] = {0.0F, -0.0F, tiny, -tiny, 1.0e-40F, -1.0e-40F,
                           inf,  inf,   inf,  -inf,  nan,      -nan};
  util::Rng rng(0x6A9);
  for (std::size_t area = 1; area <= 67; ++area) {
    for (std::size_t channels = 1; channels <= 19; ++channels) {
      const std::size_t batch = 2;
      std::vector<float> xv(batch * channels * area);
      for (std::size_t i = 0; i < xv.size(); ++i) {
        const std::size_t q = i / area, kinds = 6 + 2 * (q % 4);
        const std::size_t kind = (i * 7 + q) % (kinds + 5);
        xv[i] = kind < kinds ? special[kind] : static_cast<float>(rng.normal());
      }
      const Tensor y = GlobalAvgPool2D().forward(Tensor(Shape{batch, channels, 1, area}, xv),
                                                 false);
      std::vector<float> want(batch * channels);
      for (std::size_t q = 0; q < want.size(); ++q) {
        double sum = 0.0;
        for (std::size_t i = 0; i < area; ++i) sum += xv[q * area + i];
        want[q] = static_cast<float>(sum / static_cast<double>(area));
      }
      ASSERT_EQ(bits(y), bits(Tensor(Shape{batch, channels}, want)))
          << "area=" << area << " channels=" << channels;
    }
  }
}

TEST(GlobalAvgPool2D, GradientCheck) {
  GlobalAvgPool2D pool;
  testing::check_gradients(pool, testing::random_input(Shape{2, 3, 3, 3}, 5));
}

}  // namespace
}  // namespace helcfl::nn

#include "nn/activations.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "gradcheck.h"

namespace helcfl::nn {
namespace {

using tensor::Shape;
using tensor::Tensor;

Tensor away_from_kinks(Shape shape, std::uint64_t seed) {
  // Inputs bounded away from 0 so finite differences don't straddle the
  // ReLU kink.
  Tensor x = testing::random_input(std::move(shape), seed);
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (std::abs(x[i]) < 0.05F) x[i] = x[i] < 0.0F ? -0.05F : 0.05F;
  }
  return x;
}

TEST(ReLU, ClampsNegatives) {
  ReLU relu;
  Tensor x(Shape{4}, {-1.0F, 0.0F, 0.5F, 2.0F});
  const Tensor y = relu.forward(x, false);
  EXPECT_FLOAT_EQ(y[0], 0.0F);
  EXPECT_FLOAT_EQ(y[1], 0.0F);
  EXPECT_FLOAT_EQ(y[2], 0.5F);
  EXPECT_FLOAT_EQ(y[3], 2.0F);
}

TEST(ReLU, BackwardMasks) {
  ReLU relu;
  Tensor x(Shape{3}, {-1.0F, 1.0F, 2.0F});
  (void)relu.forward(x, true);
  Tensor dy(Shape{3}, {10.0F, 10.0F, 10.0F});
  const Tensor dx = relu.backward(dy);
  EXPECT_FLOAT_EQ(dx[0], 0.0F);
  EXPECT_FLOAT_EQ(dx[1], 10.0F);
  EXPECT_FLOAT_EQ(dx[2], 10.0F);
}

TEST(ReLU, NanAndNegativeZeroBecomePositiveZero) {
  ReLU relu;
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  Tensor x(Shape{6}, {nan, -0.0F, 0.0F, -inf, inf, -nan});
  const Tensor y = relu.forward(x, true);
  const std::uint32_t want[] = {0U, 0U, 0U, 0U, std::bit_cast<std::uint32_t>(inf), 0U};
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(std::bit_cast<std::uint32_t>(y[i]), want[i]) << "element " << i;
  }
}

TEST(ReLU, BackwardMultipliesByTheMaskBitwise) {
  // The gate is a multiplication by 0.0F or 1.0F, not a select: a gated
  // negative gradient becomes -0 and a gated non-finite one NaN.
  ReLU relu;
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  Tensor x(Shape{6}, {-1.0F, -0.0F, nan, 1.0F, 2.0F, 0.0F});
  (void)relu.forward(x, true);
  Tensor dy(Shape{6}, {-3.0F, inf, 4.0F, -5.0F, nan, 6.0F});
  const Tensor dx = relu.backward(dy);
  EXPECT_EQ(std::bit_cast<std::uint32_t>(dx[0]), std::bit_cast<std::uint32_t>(-0.0F));
  EXPECT_TRUE(std::isnan(dx[1]));  // inf * 0
  EXPECT_EQ(std::bit_cast<std::uint32_t>(dx[2]), 0U);
  EXPECT_EQ(dx[3], -5.0F);
  EXPECT_TRUE(std::isnan(dx[4]));  // NaN * 1
  EXPECT_EQ(std::bit_cast<std::uint32_t>(dx[5]), 0U);
}

TEST(ReLU, GradientCheck) {
  ReLU relu;
  testing::check_gradients(relu, away_from_kinks(Shape{2, 8}, 1));
}

TEST(ReLU, PreservesShape) {
  ReLU relu;
  const Tensor y = relu.forward(Tensor(Shape{2, 3, 4, 5}), false);
  EXPECT_EQ(y.shape(), Shape({2, 3, 4, 5}));
}

TEST(LeakyReLU, AppliesSlopeToNegatives) {
  LeakyReLU leaky(0.1F);
  Tensor x(Shape{2}, {-2.0F, 3.0F});
  const Tensor y = leaky.forward(x, false);
  EXPECT_FLOAT_EQ(y[0], -0.2F);
  EXPECT_FLOAT_EQ(y[1], 3.0F);
}

TEST(LeakyReLU, BackwardScalesNegatives) {
  LeakyReLU leaky(0.1F);
  Tensor x(Shape{2}, {-2.0F, 3.0F});
  (void)leaky.forward(x, true);
  Tensor dy(Shape{2}, {1.0F, 1.0F});
  const Tensor dx = leaky.backward(dy);
  EXPECT_FLOAT_EQ(dx[0], 0.1F);
  EXPECT_FLOAT_EQ(dx[1], 1.0F);
}

TEST(LeakyReLU, GradientCheck) {
  LeakyReLU leaky(0.2F);
  testing::check_gradients(leaky, away_from_kinks(Shape{3, 5}, 2));
}

TEST(Tanh, MatchesStdTanh) {
  Tanh tanh_layer;
  Tensor x(Shape{3}, {-1.0F, 0.0F, 2.0F});
  const Tensor y = tanh_layer.forward(x, false);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(y[i], std::tanh(x[i]), 1e-6F);
  }
}

TEST(Tanh, SaturatesToUnitRange) {
  Tanh tanh_layer;
  Tensor x(Shape{2}, {-100.0F, 100.0F});
  const Tensor y = tanh_layer.forward(x, false);
  EXPECT_NEAR(y[0], -1.0F, 1e-6F);
  EXPECT_NEAR(y[1], 1.0F, 1e-6F);
}

TEST(Tanh, GradientCheck) {
  Tanh tanh_layer;
  testing::check_gradients(tanh_layer, testing::random_input(Shape{2, 6}, 3));
}

TEST(Activations, StatelessLayersHaveNoParams) {
  ReLU relu;
  LeakyReLU leaky(0.1F);
  Tanh tanh_layer;
  EXPECT_TRUE(relu.params().empty());
  EXPECT_TRUE(leaky.params().empty());
  EXPECT_TRUE(tanh_layer.params().empty());
}

}  // namespace
}  // namespace helcfl::nn

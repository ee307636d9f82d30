#include "nn/activations.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "gradcheck.h"
#include "util/rng.h"

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

std::uint32_t bits(float v) { return std::bit_cast<std::uint32_t>(v); }

/// Hazard values in a rotating order (offset by `shift`), so every one of
/// them lands in every vector lane and in the scalar tail.
std::vector<float> hazards(std::size_t n, std::size_t shift, std::uint64_t seed) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float tiny = std::numeric_limits<float>::denorm_min();
  const float special[] = {nan, -nan, 0.0F, -0.0F, inf, -inf, tiny, -tiny,
                           1.0e-40F, -1.0e-40F, 1.0F, -1.0F};
  const std::size_t kinds = sizeof special / sizeof special[0];
  util::Rng rng(seed);
  std::vector<float> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t kind = (i + shift) % (kinds + 3);
    v[i] = kind < kinds ? special[kind] : static_cast<float>(rng.normal());
  }
  return v;
}

TEST(ReLU, EveryLengthMatchesTheScalarExpressionsBitwise) {
  // Output x > 0 ? x : 0, mask x > 0 (a backward of ones returns it as
  // floats) and gate g * float(mask), for vector bodies and every tail.
  for (std::size_t n = 1; n <= 67; ++n) {
    for (std::size_t shift = 0; shift < 3; ++shift) {
      SCOPED_TRACE("n=" + std::to_string(n) + " shift=" + std::to_string(shift));
      const std::vector<float> xv = hazards(n, shift, n);
      const std::vector<float> gv = hazards(n, shift + 5, n + 100);
      const Tensor x(Shape{n}, xv);
      ReLU relu;
      const Tensor y = relu.forward(x, true);
      const Tensor mask = relu.backward(Tensor::full(Shape{n}, 1.0F));
      const Tensor dx = relu.backward(Tensor(Shape{n}, gv));
      const Tensor y_eval = relu.forward(x, false);
      for (std::size_t i = 0; i < n; ++i) {
        const float want_mask = xv[i] > 0.0F ? 1.0F : 0.0F;
        EXPECT_EQ(bits(y[i]), bits(xv[i] > 0.0F ? xv[i] : 0.0F)) << "output " << i;
        EXPECT_EQ(bits(y_eval[i]), bits(y[i])) << "inference output " << i;
        EXPECT_EQ(bits(mask[i]), bits(want_mask)) << "mask " << i;
        EXPECT_EQ(bits(dx[i]), bits(gv[i] * want_mask)) << "gate " << i;
      }
    }
  }
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

// backward() checks its argument in every build type, so a gradient of
// another batch size never runs off the end of the cached mask or input.

TEST(ReLU, BackwardRejectsMismatchedGradShape) {
  ReLU relu;
  (void)relu.forward(Tensor(Shape{4, 8}), true);
  EXPECT_THROW(relu.backward(Tensor(Shape{2, 8})), std::invalid_argument);
  EXPECT_THROW(relu.backward(Tensor(Shape{8, 8})), std::invalid_argument);
  EXPECT_THROW(ReLU().backward(Tensor(Shape{4, 8})), std::invalid_argument);
}

TEST(LeakyReLU, BackwardRejectsMismatchedGradShape) {
  LeakyReLU leaky(0.1F);
  (void)leaky.forward(Tensor(Shape{4, 8}), true);
  EXPECT_THROW(leaky.backward(Tensor(Shape{8, 8})), std::invalid_argument);
}

TEST(Tanh, BackwardRejectsMismatchedGradShape) {
  Tanh tanh_layer;
  (void)tanh_layer.forward(Tensor(Shape{4, 8}), true);
  EXPECT_THROW(tanh_layer.backward(Tensor(Shape{8, 8})), std::invalid_argument);
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

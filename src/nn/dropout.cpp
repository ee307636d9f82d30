#include "nn/dropout.h"

#include <stdexcept>

namespace helcfl::nn {

using tensor::Tensor;

Dropout::Dropout(float p, util::Rng& rng) : p_(p), rng_(rng.fork(0x6d61736bULL)) {
  if (p < 0.0F || p >= 1.0F) {
    throw std::invalid_argument("Dropout: p must be in [0, 1), got " +
                                std::to_string(p));
  }
}

Dropout::Dropout(const Dropout& other) : Layer(), p_(other.p_), rng_(other.rng_) {}

std::unique_ptr<Layer> Dropout::clone() const {
  return std::make_unique<Dropout>(*this);
}

Tensor Dropout::forward(const Tensor& input, bool training) {
  if (!training || p_ == 0.0F) {
    mask_ = Tensor();  // inference mode: nothing cached
    return input;
  }
  mask_ = Tensor(input.shape());
  const float keep_scale = 1.0F / (1.0F - p_);
  Tensor output = input;
  for (std::size_t i = 0; i < output.size(); ++i) {
    if (rng_.bernoulli(p_)) {
      mask_[i] = 0.0F;
      output[i] = 0.0F;
    } else {
      mask_[i] = keep_scale;
      output[i] *= keep_scale;
    }
  }
  return output;
}

Tensor Dropout::backward(const Tensor& grad_output) {
  if (mask_.empty()) return grad_output;  // forward ran in inference mode
  tensor::require_same_shape(grad_output.shape(), mask_.shape(),
                             "Dropout::backward: grad_output vs forward input");
  Tensor grad_input = grad_output;
  for (std::size_t i = 0; i < grad_input.size(); ++i) grad_input[i] *= mask_[i];
  return grad_input;
}

std::string Dropout::name() const { return "Dropout(" + std::to_string(p_) + ")"; }

}  // namespace helcfl::nn

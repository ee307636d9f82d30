#include "nn/fire.h"

#include <stdexcept>

#include "tensor/ops.h"
#include "util/rng.h"

namespace helcfl::nn {

using tensor::Shape;
using tensor::Tensor;

namespace {

/// ReLU applied in place; returns a mask-free copy (Fire keeps the post-ReLU
/// activation itself, which is enough to gate gradients: x > 0 <=> relu(x) > 0).
void relu_inplace(Tensor& t) {
  float* x = t.data().data();
  for (std::size_t i = 0; i < t.size(); ++i) x[i] = x[i] < 0.0F ? 0.0F : x[i];
}

/// Gates `grad` by the positivity of `activation` (post-ReLU output).
Tensor relu_backward(const Tensor& grad, const Tensor& activation) {
  tensor::require_same_shape(grad.shape(), activation.shape(),
                             "Fire::backward: gradient vs activation");
  Tensor out = grad;
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = activation[i] <= 0.0F ? 0.0F : out[i];
  }
  return out;
}

}  // namespace

Fire::Fire(std::size_t in_channels, std::size_t squeeze, std::size_t expand1x1,
           std::size_t expand3x3, util::Rng& rng)
    : expand1_channels_(expand1x1),
      expand3_channels_(expand3x3),
      squeeze_(in_channels, squeeze, /*kernel_size=*/1, /*stride=*/1, /*padding=*/0,
               rng),
      expand1_(squeeze, expand1x1, /*kernel_size=*/1, /*stride=*/1, /*padding=*/0, rng),
      expand3_(squeeze, expand3x3, /*kernel_size=*/3, /*stride=*/1, /*padding=*/1,
               rng) {}

Fire::Fire(const Fire& other)
    : Layer(),
      expand1_channels_(other.expand1_channels_),
      expand3_channels_(other.expand3_channels_),
      squeeze_(other.squeeze_),
      expand1_(other.expand1_),
      expand3_(other.expand3_) {}

std::unique_ptr<Layer> Fire::clone() const { return std::make_unique<Fire>(*this); }

Tensor Fire::forward(const Tensor& input, bool training) {
  Tensor s = squeeze_.forward(input, training);
  relu_inplace(s);
  if (training) squeeze_out_ = s;

  Tensor e1 = expand1_.forward(s, training);
  relu_inplace(e1);
  Tensor e3 = expand3_.forward(s, training);
  relu_inplace(e3);
  if (training) {
    expand1_out_ = e1;
    expand3_out_ = e3;
  }

  // Concatenate along channels: [N, e1 + e3, H, W].
  const std::size_t batch = e1.shape()[0];
  const std::size_t h = e1.shape()[2];
  const std::size_t w = e1.shape()[3];
  Tensor output(Shape{batch, expand1_channels_ + expand3_channels_, h, w});
  const std::size_t area = h * w;
  for (std::size_t n = 0; n < batch; ++n) {
    for (std::size_t c = 0; c < expand1_channels_; ++c) {
      const std::size_t src = (n * expand1_channels_ + c) * area;
      const std::size_t dst = (n * out_channels() + c) * area;
      for (std::size_t i = 0; i < area; ++i) output[dst + i] = e1[src + i];
    }
    for (std::size_t c = 0; c < expand3_channels_; ++c) {
      const std::size_t src = (n * expand3_channels_ + c) * area;
      const std::size_t dst = (n * out_channels() + expand1_channels_ + c) * area;
      for (std::size_t i = 0; i < area; ++i) output[dst + i] = e3[src + i];
    }
  }
  return output;
}

Tensor Fire::backward(const Tensor& grad_output) {
  const Shape& e1 = expand1_out_.shape();
  if (e1.rank() != 4) throw std::logic_error("Fire::backward: requires a training forward()");
  const std::size_t batch = e1[0];
  const std::size_t h = e1[2];
  const std::size_t w = e1[3];
  const std::size_t area = h * w;
  tensor::require_same_shape(grad_output.shape(), {batch, out_channels(), h, w},
                             "Fire::backward: grad_output vs forward output");

  // Split the concatenated gradient back into the two expand branches.
  Tensor g1(Shape{batch, expand1_channels_, h, w});
  Tensor g3(Shape{batch, expand3_channels_, h, w});
  for (std::size_t n = 0; n < batch; ++n) {
    for (std::size_t c = 0; c < expand1_channels_; ++c) {
      const std::size_t dst = (n * expand1_channels_ + c) * area;
      const std::size_t src = (n * out_channels() + c) * area;
      for (std::size_t i = 0; i < area; ++i) g1[dst + i] = grad_output[src + i];
    }
    for (std::size_t c = 0; c < expand3_channels_; ++c) {
      const std::size_t dst = (n * expand3_channels_ + c) * area;
      const std::size_t src = (n * out_channels() + expand1_channels_ + c) * area;
      for (std::size_t i = 0; i < area; ++i) g3[dst + i] = grad_output[src + i];
    }
  }

  Tensor gs1 = expand1_.backward(relu_backward(g1, expand1_out_));
  Tensor gs3 = expand3_.backward(relu_backward(g3, expand3_out_));
  tensor::add_inplace(gs1.data(), gs3.data());
  return squeeze_.backward(relu_backward(gs1, squeeze_out_));
}

std::vector<ParamRef> Fire::params() {
  std::vector<ParamRef> all;
  for (auto& p : squeeze_.params()) all.push_back(p);
  for (auto& p : expand1_.params()) all.push_back(p);
  for (auto& p : expand3_.params()) all.push_back(p);
  return all;
}

std::string Fire::name() const {
  return "Fire(s=" + std::to_string(squeeze_.out_channels()) +
         ", e1=" + std::to_string(expand1_channels_) +
         ", e3=" + std::to_string(expand3_channels_) + ")";
}

}  // namespace helcfl::nn

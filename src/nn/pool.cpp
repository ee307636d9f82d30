#include "nn/pool.h"

#include <cassert>
#include <limits>
#include <stdexcept>

namespace helcfl::nn {

using tensor::Shape;
using tensor::Tensor;

MaxPool2D::MaxPool2D(std::size_t kernel_size, std::size_t stride)
    : kernel_(kernel_size), stride_(stride) {
  if (kernel_size == 0 || stride == 0) {
    throw std::invalid_argument("MaxPool2D: kernel and stride must be positive");
  }
}

Tensor MaxPool2D::forward(const Tensor& input, bool training) {
  const Shape& s = input.shape();
  if (s.rank() != 4) {
    throw std::invalid_argument("MaxPool2D::forward: expected rank-4 input, got " +
                                s.to_string());
  }
  const std::size_t batch = s[0];
  const std::size_t channels = s[1];
  const std::size_t h_in = s[2];
  const std::size_t w_in = s[3];
  if (h_in < kernel_ || w_in < kernel_) {
    throw std::invalid_argument("MaxPool2D::forward: input " + s.to_string() +
                                " smaller than window " + std::to_string(kernel_));
  }
  const std::size_t h_out = (h_in - kernel_) / stride_ + 1;
  const std::size_t w_out = (w_in - kernel_) / stride_ + 1;

  Tensor output(Shape{batch, channels, h_out, w_out});
  if (training) {
    input_shape_ = s;
    argmax_.resize(output.size());
  }
  // Each tap is a select, not a branch (the order of random activations
  // is unpredictable).  Strict > keeps the first maximum on ties and never
  // takes NaN; a window of only -inf/NaN outputs -inf and routes its
  // gradient to its own first element.
  const float* in = input.data().data();
  float* out = output.data().data();
  std::size_t out_i = 0;
  for (std::size_t plane = 0; plane < batch * channels; ++plane) {
    const std::size_t plane_base = plane * h_in * w_in;
    for (std::size_t oy = 0; oy < h_out; ++oy) {
      for (std::size_t ox = 0; ox < w_out; ++ox, ++out_i) {
        const std::size_t window = plane_base + oy * stride_ * w_in + ox * stride_;
        float best = -std::numeric_limits<float>::infinity();
        std::size_t best_index = window;
        for (std::size_t ky = 0; ky < kernel_; ++ky) {
          for (std::size_t kx = 0; kx < kernel_; ++kx) {
            const std::size_t flat = window + ky * w_in + kx;
            const float v = in[flat];
            const bool take = v > best;
            best = take ? v : best;
            best_index = take ? flat : best_index;
          }
        }
        out[out_i] = best;
        if (training) argmax_[out_i] = best_index;
      }
    }
  }
  return output;
}

Tensor MaxPool2D::backward(const Tensor& grad_output) {
  assert(grad_output.size() == argmax_.size());
  Tensor grad_input(input_shape_);
  for (std::size_t i = 0; i < grad_output.size(); ++i) {
    grad_input[argmax_[i]] += grad_output[i];
  }
  return grad_input;
}

std::string MaxPool2D::name() const {
  return "MaxPool2D(k=" + std::to_string(kernel_) + ", s=" + std::to_string(stride_) +
         ")";
}

Tensor GlobalAvgPool2D::forward(const Tensor& input, bool training) {
  const Shape& s = input.shape();
  if (s.rank() != 4) {
    throw std::invalid_argument("GlobalAvgPool2D::forward: expected rank-4, got " +
                                s.to_string());
  }
  if (training) input_shape_ = s;
  const std::size_t batch = s[0];
  const std::size_t channels = s[1];
  const std::size_t area = s[2] * s[3];
  Tensor output(Shape{batch, channels});
  for (std::size_t n = 0; n < batch; ++n) {
    for (std::size_t c = 0; c < channels; ++c) {
      double sum = 0.0;
      const std::size_t base = (n * channels + c) * area;
      for (std::size_t i = 0; i < area; ++i) sum += input[base + i];
      output.at(n, c) = static_cast<float>(sum / static_cast<double>(area));
    }
  }
  return output;
}

Tensor GlobalAvgPool2D::backward(const Tensor& grad_output) {
  const std::size_t batch = input_shape_[0];
  const std::size_t channels = input_shape_[1];
  const std::size_t area = input_shape_[2] * input_shape_[3];
  assert(grad_output.shape() == Shape({batch, channels}));
  Tensor grad_input(input_shape_);
  const float inv_area = 1.0F / static_cast<float>(area);
  for (std::size_t n = 0; n < batch; ++n) {
    for (std::size_t c = 0; c < channels; ++c) {
      const float g = grad_output.at(n, c) * inv_area;
      const std::size_t base = (n * channels + c) * area;
      for (std::size_t i = 0; i < area; ++i) grad_input[base + i] = g;
    }
  }
  return grad_input;
}

}  // namespace helcfl::nn

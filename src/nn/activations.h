// Elementwise activation layers.
#pragma once

#include <cstdint>
#include <vector>

#include "nn/layer.h"

namespace helcfl::nn {

/// Rectified linear unit, y = max(0, x).
class ReLU : public Layer {
 public:
  tensor::Tensor forward(const tensor::Tensor& input, bool training) override;
  tensor::Tensor backward(const tensor::Tensor& grad_output) override;
  std::unique_ptr<Layer> clone() const override { return std::make_unique<ReLU>(); }
  std::string name() const override { return "ReLU"; }

 private:
  tensor::Shape shape_;             // training forward's input shape
  std::vector<std::uint8_t> mask_;  // 1 where input > 0
};

/// Leaky ReLU with configurable negative slope.
class LeakyReLU : public Layer {
 public:
  explicit LeakyReLU(float negative_slope = 0.01F) : slope_(negative_slope) {}
  tensor::Tensor forward(const tensor::Tensor& input, bool training) override;
  tensor::Tensor backward(const tensor::Tensor& grad_output) override;
  std::unique_ptr<Layer> clone() const override {
    return std::make_unique<LeakyReLU>(slope_);
  }
  std::string name() const override;

 private:
  float slope_;
  tensor::Tensor cached_input_;
};

/// Hyperbolic tangent.
class Tanh : public Layer {
 public:
  tensor::Tensor forward(const tensor::Tensor& input, bool training) override;
  tensor::Tensor backward(const tensor::Tensor& grad_output) override;
  std::unique_ptr<Layer> clone() const override { return std::make_unique<Tanh>(); }
  std::string name() const override { return "Tanh"; }

 private:
  tensor::Tensor cached_output_;
};

}  // namespace helcfl::nn

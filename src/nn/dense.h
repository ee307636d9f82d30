// Fully connected layer: y = x W^T + b.
#pragma once

#include <cstddef>

#include "nn/layer.h"

namespace helcfl::util {
class Rng;
}

namespace helcfl::nn {

/// Dense (fully connected) layer over rank-2 input [batch, in_features].
/// Weight is stored [out_features, in_features]; bias [out_features].
class Dense : public Layer {
 public:
  /// He-initializes the weight with `rng`; bias starts at zero.
  Dense(std::size_t in_features, std::size_t out_features, util::Rng& rng);
  Dense(const Dense& other);

  tensor::Tensor forward(const tensor::Tensor& input, bool training) override;
  tensor::Tensor backward(const tensor::Tensor& grad_output) override;
  void accumulate_grads(const tensor::Tensor& grad_output) override;
  std::vector<ParamRef> params() override;
  std::unique_ptr<Layer> clone() const override;
  std::string name() const override;

  std::size_t in_features() const { return in_features_; }
  std::size_t out_features() const { return out_features_; }

 private:
  std::size_t in_features_;
  std::size_t out_features_;
  tensor::Tensor weight_;       // [out, in]
  tensor::Tensor bias_;         // [out]
  tensor::Tensor grad_weight_;  // [out, in]
  tensor::Tensor grad_bias_;    // [out]
  tensor::Tensor cached_input_;  // [batch, in], training forward only
};

}  // namespace helcfl::nn

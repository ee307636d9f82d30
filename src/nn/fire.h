// SqueezeNet Fire module (Iandola et al., 2016): a 1x1 "squeeze"
// convolution followed by parallel 1x1 and 3x3 "expand" convolutions whose
// outputs are concatenated along the channel axis.  All three convolutions
// are followed by ReLU.
#pragma once

#include <memory>

#include "nn/conv2d.h"
#include "nn/layer.h"

namespace helcfl::util {
class Rng;
}

namespace helcfl::nn {

class Fire : public Layer {
 public:
  /// Output channel count is expand1x1 + expand3x3.
  Fire(std::size_t in_channels, std::size_t squeeze, std::size_t expand1x1,
       std::size_t expand3x3, util::Rng& rng);
  Fire(const Fire& other);

  tensor::Tensor forward(const tensor::Tensor& input, bool training) override;
  tensor::Tensor backward(const tensor::Tensor& grad_output) override;
  std::vector<ParamRef> params() override;
  std::unique_ptr<Layer> clone() const override;
  std::string name() const override;

  std::size_t out_channels() const { return expand1_channels_ + expand3_channels_; }

 private:
  std::size_t expand1_channels_;
  std::size_t expand3_channels_;
  Conv2D squeeze_;
  Conv2D expand1_;
  Conv2D expand3_;
  // Cached training-mode activations for ReLU backward.
  tensor::Tensor squeeze_out_;  // post-ReLU squeeze activation
  tensor::Tensor expand1_out_;  // post-ReLU expand1x1 activation
  tensor::Tensor expand3_out_;  // post-ReLU expand3x3 activation
};

}  // namespace helcfl::nn

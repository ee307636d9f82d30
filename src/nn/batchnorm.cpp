#include "nn/batchnorm.h"

#include <cmath>
#include <stdexcept>

namespace helcfl::nn {

using tensor::Shape;
using tensor::Tensor;

BatchNorm::BatchNorm(std::size_t num_features, float momentum, float epsilon)
    : features_(num_features),
      momentum_(momentum),
      epsilon_(epsilon),
      gamma_(Shape{num_features}),
      beta_(Shape{num_features}),
      grad_gamma_(Shape{num_features}),
      grad_beta_(Shape{num_features}),
      running_mean_(Shape{num_features}),
      running_var_(Shape{num_features}) {
  if (num_features == 0) throw std::invalid_argument("BatchNorm: zero features");
  if (momentum < 0.0F || momentum > 1.0F) {
    throw std::invalid_argument("BatchNorm: momentum must be in [0, 1]");
  }
  if (epsilon <= 0.0F) throw std::invalid_argument("BatchNorm: epsilon must be > 0");
  gamma_.fill(1.0F);
  running_var_.fill(1.0F);
}

BatchNorm::BatchNorm(const BatchNorm& other)
    : Layer(),
      features_(other.features_),
      momentum_(other.momentum_),
      epsilon_(other.epsilon_),
      gamma_(other.gamma_),
      beta_(other.beta_),
      grad_gamma_(other.grad_gamma_),
      grad_beta_(other.grad_beta_),
      running_mean_(other.running_mean_),
      running_var_(other.running_var_) {}

std::unique_ptr<Layer> BatchNorm::clone() const {
  return std::make_unique<BatchNorm>(*this);
}

std::vector<std::span<float>> BatchNorm::state_buffers() {
  return {running_mean_.data(), running_var_.data()};
}

std::size_t BatchNorm::feature_of(const Shape& shape, std::size_t flat) const {
  if (shape.rank() == 2) return flat % features_;
  // rank 4, NCHW: feature = channel.
  const std::size_t area = shape[2] * shape[3];
  return (flat / area) % features_;
}

Tensor BatchNorm::forward(const Tensor& input, bool training) {
  const Shape& shape = input.shape();
  if (!((shape.rank() == 2 && shape[1] == features_) ||
        (shape.rank() == 4 && shape[1] == features_))) {
    throw std::invalid_argument("BatchNorm::forward: expected [N, " +
                                std::to_string(features_) + "(, H, W)], got " +
                                shape.to_string());
  }
  const std::size_t group = input.size() / features_;  // N or N*H*W
  if (training && group < 2) {
    throw std::invalid_argument("BatchNorm::forward: training needs >= 2 values per feature");
  }

  std::vector<float> mean(features_, 0.0F);
  std::vector<float> var(features_, 0.0F);
  if (training) {
    std::vector<double> sum(features_, 0.0);
    std::vector<double> sum_sq(features_, 0.0);
    for (std::size_t i = 0; i < input.size(); ++i) {
      const std::size_t f = feature_of(shape, i);
      sum[f] += input[i];
      sum_sq[f] += static_cast<double>(input[i]) * input[i];
    }
    for (std::size_t f = 0; f < features_; ++f) {
      const double mu = sum[f] / static_cast<double>(group);
      const double v = sum_sq[f] / static_cast<double>(group) - mu * mu;
      mean[f] = static_cast<float>(mu);
      var[f] = static_cast<float>(std::max(v, 0.0));
      running_mean_[f] = (1.0F - momentum_) * running_mean_[f] + momentum_ * mean[f];
      running_var_[f] = (1.0F - momentum_) * running_var_[f] + momentum_ * var[f];
    }
  } else {
    for (std::size_t f = 0; f < features_; ++f) {
      mean[f] = running_mean_[f];
      var[f] = running_var_[f];
    }
  }

  std::vector<float> inv_std(features_);
  for (std::size_t f = 0; f < features_; ++f) {
    inv_std[f] = 1.0F / std::sqrt(var[f] + epsilon_);
  }

  Tensor output(shape);
  Tensor x_hat(shape);
  for (std::size_t i = 0; i < input.size(); ++i) {
    const std::size_t f = feature_of(shape, i);
    x_hat[i] = (input[i] - mean[f]) * inv_std[f];
    output[i] = gamma_[f] * x_hat[i] + beta_[f];
  }
  if (training) {
    x_hat_ = std::move(x_hat);
    batch_inv_std_ = std::move(inv_std);
    group_size_ = group;
  }
  return output;
}

Tensor BatchNorm::backward(const Tensor& grad_output) {
  if (x_hat_.empty()) {
    throw std::logic_error("BatchNorm::backward: requires a training forward()");
  }
  const Shape& shape = x_hat_.shape();
  tensor::require_same_shape(grad_output.shape(), shape,
                             "BatchNorm::backward: grad_output vs forward input");
  const auto group = static_cast<float>(group_size_);

  // Per-feature reductions: sum(dy) and sum(dy * x_hat).
  std::vector<double> sum_dy(features_, 0.0);
  std::vector<double> sum_dy_xhat(features_, 0.0);
  for (std::size_t i = 0; i < grad_output.size(); ++i) {
    const std::size_t f = feature_of(shape, i);
    sum_dy[f] += grad_output[i];
    sum_dy_xhat[f] += static_cast<double>(grad_output[i]) * x_hat_[i];
    grad_beta_[f] += grad_output[i];
    grad_gamma_[f] += grad_output[i] * x_hat_[i];
  }

  // dL/dx = gamma * inv_std / m * (m*dy - sum(dy) - x_hat * sum(dy*x_hat)).
  Tensor grad_input(shape);
  for (std::size_t i = 0; i < grad_output.size(); ++i) {
    const std::size_t f = feature_of(shape, i);
    const float scale = gamma_[f] * batch_inv_std_[f] / group;
    grad_input[i] = scale * (group * grad_output[i] -
                             static_cast<float>(sum_dy[f]) -
                             x_hat_[i] * static_cast<float>(sum_dy_xhat[f]));
  }
  return grad_input;
}

std::vector<ParamRef> BatchNorm::params() {
  return {{gamma_.data(), grad_gamma_.data()}, {beta_.data(), grad_beta_.data()}};
}

std::string BatchNorm::name() const {
  return "BatchNorm(" + std::to_string(features_) + ")";
}

}  // namespace helcfl::nn

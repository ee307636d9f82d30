// Numerical gradient checking shared by the layer tests.
//
// Verifies both the input gradient and every parameter gradient of a layer
// against central finite differences of a scalar loss L = sum(w .* y),
// where w is a fixed random weighting (so all output components are
// exercised).
#pragma once

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "nn/layer.h"
#include "util/rng.h"

namespace helcfl::testing {

/// Scalar loss: weighted sum of all outputs.  Returns loss and the gradient
/// dL/dy (= the weights themselves).
inline double weighted_sum(const tensor::Tensor& y, std::span<const float> w) {
  double loss = 0.0;
  for (std::size_t i = 0; i < y.size(); ++i) loss += static_cast<double>(w[i]) * y[i];
  return loss;
}

/// Checks dL/dInput and all dL/dParam of `layer` at input `x` by central
/// differences with step `eps`.  `tolerance` is the max allowed absolute
/// error, compared against gradients normalized by max(1, |analytic|).
/// When `fd_training` is true the finite-difference evaluations use
/// training-mode forwards; required for layers whose inference path is a
/// different function (BatchNorm's running statistics).
inline void check_gradients(nn::Layer& layer, tensor::Tensor x, double eps = 1e-3,
                            double tolerance = 2e-2, bool fd_training = false) {
  util::Rng rng(0xC0FFEE);

  // Fixed output weighting.
  tensor::Tensor y0 = layer.forward(x, /*training=*/true);
  std::vector<float> w(y0.size());
  for (auto& v : w) v = static_cast<float>(rng.uniform(-1.0, 1.0));

  // Analytic gradients.
  layer.zero_grad();
  tensor::Tensor y = layer.forward(x, /*training=*/true);
  tensor::Tensor dy(y.shape());
  for (std::size_t i = 0; i < dy.size(); ++i) dy[i] = w[i];
  const tensor::Tensor dx = layer.backward(dy);
  ASSERT_EQ(dx.shape(), x.shape());

  // Finite-difference input gradient.
  for (std::size_t i = 0; i < x.size(); ++i) {
    const float saved = x[i];
    x[i] = saved + static_cast<float>(eps);
    const double plus = weighted_sum(layer.forward(x, fd_training), w);
    x[i] = saved - static_cast<float>(eps);
    const double minus = weighted_sum(layer.forward(x, fd_training), w);
    x[i] = saved;
    const double numeric = (plus - minus) / (2.0 * eps);
    const double denom = std::max(1.0, std::abs(static_cast<double>(dx[i])));
    EXPECT_NEAR(dx[i] / denom, numeric / denom, tolerance)
        << "input gradient mismatch at flat index " << i;
  }

  // Finite-difference parameter gradients: each perturbation writes the
  // parameter span directly, and the next forward must read it.
  auto params = layer.params();
  for (std::size_t p = 0; p < params.size(); ++p) {
    auto value = params[p].value;
    auto grad = params[p].grad;
    for (std::size_t i = 0; i < value.size(); ++i) {
      const float saved = value[i];
      value[i] = saved + static_cast<float>(eps);
      const double plus = weighted_sum(layer.forward(x, fd_training), w);
      value[i] = saved - static_cast<float>(eps);
      const double minus = weighted_sum(layer.forward(x, fd_training), w);
      value[i] = saved;
      const double numeric = (plus - minus) / (2.0 * eps);
      const double denom = std::max(1.0, std::abs(static_cast<double>(grad[i])));
      EXPECT_NEAR(grad[i] / denom, numeric / denom, tolerance)
          << "param " << p << " gradient mismatch at flat index " << i;
    }
  }
}

/// Random input tensor in [-1, 1].
inline tensor::Tensor random_input(tensor::Shape shape, std::uint64_t seed) {
  util::Rng rng(seed);
  tensor::Tensor x(std::move(shape));
  x.fill_uniform(rng, -1.0F, 1.0F);
  return x;
}

}  // namespace helcfl::testing

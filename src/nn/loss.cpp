#include "nn/loss.h"

#include <cmath>
#include <stdexcept>
#include <string>

namespace helcfl::nn {

using tensor::Shape;
using tensor::Tensor;

LossResult softmax_cross_entropy(const Tensor& logits,
                                 std::span<const std::int32_t> labels) {
  if (logits.shape().rank() != 2) {
    throw std::invalid_argument("softmax_cross_entropy: logits must be rank-2, got " +
                                logits.shape().to_string());
  }
  const std::size_t batch = logits.shape()[0];
  const std::size_t classes = logits.shape()[1];
  if (labels.size() != batch) {
    throw std::invalid_argument("softmax_cross_entropy: label count mismatch");
  }

  LossResult result;
  result.probabilities = Tensor(Shape{batch, classes});
  result.grad_logits = Tensor(Shape{batch, classes});

  double total_nll = 0.0;
  const float inv_batch = 1.0F / static_cast<float>(batch);
  // Contiguous row pointers keep these loops vectorizable; the log-sum-exp
  // reduction stays in double (accumulation policy, tensor/ops.h).
  const float* logit_rows = logits.data().data();
  float* prob_rows = result.probabilities.data().data();
  float* grad_rows = result.grad_logits.data().data();
  for (std::size_t b = 0; b < batch; ++b) {
    const auto label = static_cast<std::size_t>(labels[b]);
    if (labels[b] < 0 || label >= classes) {
      throw std::invalid_argument("softmax_cross_entropy: label " +
                                  std::to_string(labels[b]) + " outside [0, " +
                                  std::to_string(classes) + ")");
    }
    const float* logit = logit_rows + b * classes;
    float* prob = prob_rows + b * classes;
    float* grad = grad_rows + b * classes;

    float max_logit = logit[0];
    std::size_t argmax = 0;
    for (std::size_t c = 1; c < classes; ++c) {
      if (logit[c] > max_logit) {
        max_logit = logit[c];
        argmax = c;
      }
    }
    if (argmax == label) ++result.correct;

    double denom = 0.0;
    for (std::size_t c = 0; c < classes; ++c) {
      denom += std::exp(static_cast<double>(logit[c] - max_logit));
    }
    const double log_denom = std::log(denom);
    for (std::size_t c = 0; c < classes; ++c) {
      const double log_p = static_cast<double>(logit[c] - max_logit) - log_denom;
      const auto p = static_cast<float>(std::exp(log_p));
      prob[c] = p;
      grad[c] = p * inv_batch;
      if (c == label) total_nll -= log_p;
    }
    grad[label] -= inv_batch;
  }
  result.loss = total_nll / static_cast<double>(batch);
  return result;
}

std::size_t count_correct(const Tensor& logits, std::span<const std::int32_t> labels) {
  if (logits.shape().rank() != 2 || logits.shape()[0] != labels.size()) {
    throw std::invalid_argument("count_correct: logits " + logits.shape().to_string() +
                                " do not match " + std::to_string(labels.size()) +
                                " labels");
  }
  const std::size_t batch = logits.shape()[0];
  const std::size_t classes = logits.shape()[1];
  std::size_t correct = 0;
  const float* rows = logits.data().data();
  for (std::size_t b = 0; b < batch; ++b) {
    const float* row = rows + b * classes;
    std::size_t argmax = 0;
    for (std::size_t c = 1; c < classes; ++c) {
      if (row[c] > row[argmax]) argmax = c;
    }
    if (argmax == static_cast<std::size_t>(labels[b])) ++correct;
  }
  return correct;
}

}  // namespace helcfl::nn

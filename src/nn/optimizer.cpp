#include "nn/optimizer.h"

#include <cmath>
#include <stdexcept>
#include <string>

namespace helcfl::nn {

namespace {

/// Throws unless every gradient matches its parameter and, when `state` has
/// been sized, every state buffer too — before any parameter moves, so a
/// rejected step leaves the weights and the optimizer state as they were.
void check_step(const char* who, const std::vector<ParamRef>& params,
                const std::vector<std::vector<float>>& state) {
  if (!state.empty() && state.size() != params.size()) {
    throw std::invalid_argument(std::string(who) + ": parameter list changed size");
  }
  for (std::size_t i = 0; i < params.size(); ++i) {
    const std::size_t n = params[i].value.size();
    if (params[i].grad.size() != n) {
      throw std::invalid_argument(std::string(who) + ": parameter " + std::to_string(i) +
                                  " has " + std::to_string(n) + " values but " +
                                  std::to_string(params[i].grad.size()) + " gradients");
    }
    if (!state.empty() && state[i].size() != n) {
      throw std::invalid_argument(std::string(who) + ": parameter " + std::to_string(i) +
                                  " changed size from " + std::to_string(state[i].size()) +
                                  " to " + std::to_string(n));
    }
  }
}

}  // namespace

void Sgd::step(const std::vector<ParamRef>& params) {
  const bool use_momentum = options_.momentum != 0.0F;
  check_step("Sgd::step", params, velocity_);  // empty without momentum
  if (use_momentum && velocity_.empty()) {
    velocity_.resize(params.size());
    for (std::size_t i = 0; i < params.size(); ++i) {
      velocity_[i].assign(params[i].value.size(), 0.0F);
    }
  }

  // Options live in locals and the buffers behind restrict pointers, so
  // the loops vectorize; each element's arithmetic is the scalar one.
  const float lr = options_.learning_rate;
  const float mu = options_.momentum;
  const float wd = options_.weight_decay;
  for (std::size_t i = 0; i < params.size(); ++i) {
    const std::size_t n = params[i].value.size();
    float* __restrict__ value = params[i].value.data();
    const float* __restrict__ grad = params[i].grad.data();
    if (use_momentum) {
      float* __restrict__ v = velocity_[i].data();
      for (std::size_t j = 0; j < n; ++j) {
        v[j] = mu * v[j] + (grad[j] + wd * value[j]);
        value[j] -= lr * v[j];
      }
    } else {
      for (std::size_t j = 0; j < n; ++j) value[j] -= lr * (grad[j] + wd * value[j]);
    }
  }
  // The step rewrote parameter storage behind the owning layers' backs;
  // invalidate their prepacked weight panels (nn/layer.h contract).
  for (const auto& p : params) {
    if (p.owner != nullptr) p.owner->mark_weights_dirty();
  }
}

void Sgd::reset_state() { velocity_.clear(); }

Adam::Adam(Options options) : options_(options) {
  if (options.beta1 < 0.0F || options.beta1 >= 1.0F || options.beta2 < 0.0F ||
      options.beta2 >= 1.0F) {
    throw std::invalid_argument("Adam: betas must be in [0, 1)");
  }
  if (options.epsilon <= 0.0F) {
    throw std::invalid_argument("Adam: epsilon must be positive");
  }
}

void Adam::step(const std::vector<ParamRef>& params) {
  // The two moments are always sized together, so checking one covers both.
  check_step("Adam::step", params, first_moment_);
  if (first_moment_.empty()) {
    first_moment_.resize(params.size());
    second_moment_.resize(params.size());
    for (std::size_t i = 0; i < params.size(); ++i) {
      first_moment_[i].assign(params[i].value.size(), 0.0F);
      second_moment_[i].assign(params[i].value.size(), 0.0F);
    }
  }

  ++step_count_;
  const double bias1 = 1.0 - std::pow(options_.beta1, static_cast<double>(step_count_));
  const double bias2 = 1.0 - std::pow(options_.beta2, static_cast<double>(step_count_));

  const float lr = options_.learning_rate;
  const float b1 = options_.beta1;
  const float b2 = options_.beta2;
  const float eps = options_.epsilon;
  const float wd = options_.weight_decay;
  for (std::size_t i = 0; i < params.size(); ++i) {
    const std::size_t n = params[i].value.size();
    float* __restrict__ value = params[i].value.data();
    const float* __restrict__ grad = params[i].grad.data();
    float* __restrict__ m = first_moment_[i].data();
    float* __restrict__ v = second_moment_[i].data();
    for (std::size_t j = 0; j < n; ++j) {
      const float g = grad[j] + wd * value[j];
      m[j] = b1 * m[j] + (1.0F - b1) * g;
      v[j] = b2 * v[j] + (1.0F - b2) * g * g;
      const double m_hat = static_cast<double>(m[j]) / bias1;
      const double v_hat = static_cast<double>(v[j]) / bias2;
      value[j] -= static_cast<float>(lr * m_hat / (std::sqrt(v_hat) + eps));
    }
  }
  for (const auto& p : params) {
    if (p.owner != nullptr) p.owner->mark_weights_dirty();
  }
}

void Adam::reset_state() {
  first_moment_.clear();
  second_moment_.clear();
  step_count_ = 0;
}

namespace schedule {

double constant(double base, std::size_t /*step*/) { return base; }

double step_decay(double base, double gamma, std::size_t every, std::size_t step) {
  if (every == 0) throw std::invalid_argument("step_decay: every must be > 0");
  return base * std::pow(gamma, static_cast<double>(step / every));
}

double cosine(double base, double floor, std::size_t total_steps, std::size_t step) {
  if (total_steps == 0) throw std::invalid_argument("cosine: total_steps must be > 0");
  if (step >= total_steps) return floor;
  const double progress = static_cast<double>(step) / static_cast<double>(total_steps);
  return floor + 0.5 * (base - floor) * (1.0 + std::cos(progress * 3.14159265358979));
}

}  // namespace schedule

}  // namespace helcfl::nn

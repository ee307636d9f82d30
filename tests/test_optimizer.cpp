#include "nn/optimizer.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

namespace helcfl::nn {
namespace {

std::vector<ParamRef> make_refs(std::vector<float>& value, std::vector<float>& grad) {
  return {{std::span<float>(value), std::span<float>(grad)}};
}

TEST(Sgd, PlainStepIsEq3) {
  // w <- w - lr * grad, exactly the paper's Eq. (3).
  std::vector<float> w = {1.0F, 2.0F};
  std::vector<float> g = {0.5F, -1.0F};
  Sgd sgd({.learning_rate = 0.1F});
  sgd.step(make_refs(w, g));
  EXPECT_FLOAT_EQ(w[0], 0.95F);
  EXPECT_FLOAT_EQ(w[1], 2.1F);
}

TEST(Sgd, ZeroGradientIsNoOp) {
  std::vector<float> w = {3.0F};
  std::vector<float> g = {0.0F};
  Sgd sgd({.learning_rate = 0.5F});
  sgd.step(make_refs(w, g));
  EXPECT_FLOAT_EQ(w[0], 3.0F);
}

TEST(Sgd, MomentumAccumulatesVelocity) {
  std::vector<float> w = {0.0F};
  std::vector<float> g = {1.0F};
  Sgd sgd({.learning_rate = 1.0F, .momentum = 0.5F});
  sgd.step(make_refs(w, g));  // v = 1, w = -1
  EXPECT_FLOAT_EQ(w[0], -1.0F);
  sgd.step(make_refs(w, g));  // v = 1.5, w = -2.5
  EXPECT_FLOAT_EQ(w[0], -2.5F);
  sgd.step(make_refs(w, g));  // v = 1.75, w = -4.25
  EXPECT_FLOAT_EQ(w[0], -4.25F);
}

TEST(Sgd, ResetStateClearsVelocity) {
  std::vector<float> w = {0.0F};
  std::vector<float> g = {1.0F};
  Sgd sgd({.learning_rate = 1.0F, .momentum = 0.9F});
  sgd.step(make_refs(w, g));
  sgd.reset_state();
  w[0] = 0.0F;
  sgd.step(make_refs(w, g));
  EXPECT_FLOAT_EQ(w[0], -1.0F);  // fresh velocity, not 1.9
}

TEST(Sgd, WeightDecayPullsTowardZero) {
  std::vector<float> w = {10.0F};
  std::vector<float> g = {0.0F};
  Sgd sgd({.learning_rate = 0.1F, .weight_decay = 0.5F});
  sgd.step(make_refs(w, g));
  EXPECT_FLOAT_EQ(w[0], 10.0F - 0.1F * 0.5F * 10.0F);
}

TEST(Sgd, MultipleParamTensors) {
  std::vector<float> w1 = {1.0F};
  std::vector<float> g1 = {1.0F};
  std::vector<float> w2 = {2.0F, 3.0F};
  std::vector<float> g2 = {1.0F, 1.0F};
  std::vector<ParamRef> refs = {{std::span<float>(w1), std::span<float>(g1)},
                                {std::span<float>(w2), std::span<float>(g2)}};
  Sgd sgd({.learning_rate = 1.0F});
  sgd.step(refs);
  EXPECT_FLOAT_EQ(w1[0], 0.0F);
  EXPECT_FLOAT_EQ(w2[0], 1.0F);
  EXPECT_FLOAT_EQ(w2[1], 2.0F);
}

TEST(Sgd, MomentumRejectsChangedParamList) {
  std::vector<float> w = {0.0F};
  std::vector<float> g = {1.0F};
  Sgd sgd({.learning_rate = 1.0F, .momentum = 0.5F});
  sgd.step(make_refs(w, g));
  std::vector<float> w2 = {0.0F};
  std::vector<float> g2 = {1.0F};
  std::vector<ParamRef> two = {{std::span<float>(w), std::span<float>(g)},
                               {std::span<float>(w2), std::span<float>(g2)}};
  EXPECT_THROW(sgd.step(two), std::invalid_argument);
}

// A rejected step must throw before any parameter moves: the first
// parameter below is valid and must keep its bits, and the optimizer's
// state must be as if the step was never tried.
TEST(Sgd, RejectsGradientSizeMismatchBeforeMovingAnyWeight) {
  std::vector<float> w1 = {1.0F, 2.0F}, g1 = {0.5F, 0.5F};
  std::vector<float> w2 = {3.0F, 4.0F, 5.0F}, g2 = {1.0F, 1.0F};  // one short
  const std::vector<ParamRef> refs = {{std::span<float>(w1), std::span<float>(g1)},
                                      {std::span<float>(w2), std::span<float>(g2)}};
  Sgd sgd({.learning_rate = 0.1F, .momentum = 0.5F});
  EXPECT_THROW(sgd.step(refs), std::invalid_argument);
  EXPECT_EQ(w1, (std::vector<float>{1.0F, 2.0F}));
  EXPECT_EQ(w2, (std::vector<float>{3.0F, 4.0F, 5.0F}));
  // No velocity was created: a valid list of another layout still steps.
  std::vector<float> w = {0.0F}, g = {1.0F};
  sgd.step(make_refs(w, g));
  EXPECT_FLOAT_EQ(w[0], -0.1F);
}

TEST(Sgd, MomentumRejectsResizedParameterBeforeMovingAnyWeight) {
  std::vector<float> w1 = {0.0F}, g1 = {1.0F};
  std::vector<float> w2 = {0.0F, 0.0F}, g2 = {1.0F, 1.0F};
  std::vector<ParamRef> refs = {{std::span<float>(w1), std::span<float>(g1)},
                                {std::span<float>(w2), std::span<float>(g2)}};
  Sgd sgd({.learning_rate = 1.0F, .momentum = 0.5F});
  sgd.step(refs);  // v = 1 everywhere, w = -1
  // Same count, but the second parameter grew: its velocity has 2 slots.
  std::vector<float> w3 = {0.0F, 0.0F, 0.0F}, g3 = {1.0F, 1.0F, 1.0F};
  const std::vector<ParamRef> resized = {refs[0], {std::span<float>(w3), std::span<float>(g3)}};
  EXPECT_THROW(sgd.step(resized), std::invalid_argument);
  EXPECT_EQ(w1[0], -1.0F);
  EXPECT_EQ(w3, (std::vector<float>{0.0F, 0.0F, 0.0F}));
  sgd.step(refs);  // v = 1.5, w = -2.5: the velocity did not move either
  EXPECT_EQ(w1[0], -2.5F);
  EXPECT_EQ(w2, (std::vector<float>{-2.5F, -2.5F}));
}

TEST(Sgd, SetLearningRate) {
  Sgd sgd({.learning_rate = 0.1F});
  sgd.set_learning_rate(0.01F);
  EXPECT_FLOAT_EQ(sgd.options().learning_rate, 0.01F);
}

TEST(Sgd, ConvergesOnQuadratic) {
  // Minimize f(w) = (w - 3)^2; grad = 2(w - 3).
  std::vector<float> w = {0.0F};
  std::vector<float> g = {0.0F};
  Sgd sgd({.learning_rate = 0.1F});
  for (int i = 0; i < 100; ++i) {
    g[0] = 2.0F * (w[0] - 3.0F);
    sgd.step(make_refs(w, g));
  }
  EXPECT_NEAR(w[0], 3.0F, 1e-4F);
}

TEST(Sgd, MomentumConvergesFasterOnIllConditionedQuadratic) {
  auto run = [](float momentum) {
    std::vector<float> w = {10.0F};
    std::vector<float> g = {0.0F};
    Sgd sgd({.learning_rate = 0.02F, .momentum = momentum});
    int steps = 0;
    while (std::abs(w[0]) > 0.01F && steps < 10000) {
      g[0] = 2.0F * w[0];
      sgd.step({{std::span<float>(w), std::span<float>(g)}});
      ++steps;
    }
    return steps;
  };
  EXPECT_LT(run(0.9F), run(0.0F));
}

// --- bitwise agreement with the element-by-element update ---------------
//
// The optimizers' loops are written to vectorize; every element must still
// get exactly the scalar arithmetic below, special values included.

constexpr float kInf = std::numeric_limits<float>::infinity();
constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();

/// Parameter tensors of awkward lengths (vector tails of every size) with
/// gradients mixing ordinary values, +-0, +-inf, NaN and subnormals.
struct ParamSet {
  std::vector<std::vector<float>> value, grad;

  ParamSet() {
    const float specials[] = {0.0F, -0.0F, kInf, -kInf, kNaN, 1e-40F, -1e-40F, 3.5F};
    for (const std::size_t n : {1, 3, 7, 8, 17, 64, 13002}) {
      std::vector<float> v(n), g(n);
      for (std::size_t j = 0; j < n; ++j) {
        v[j] = j % 13 == 5 ? -0.0F : std::sin(static_cast<float>(j + n)) * 2.0F;
        g[j] = j % 11 == 0 ? specials[(j / 11 + n) % 8]
                           : std::cos(static_cast<float>(3 * j + n)) * 0.5F;
      }
      value.push_back(std::move(v));
      grad.push_back(std::move(g));
    }
  }

  std::vector<ParamRef> refs() {
    std::vector<ParamRef> out;
    for (std::size_t i = 0; i < value.size(); ++i) out.push_back({value[i], grad[i]});
    return out;
  }
};

void expect_bitwise_equal(const ParamSet& got, const ParamSet& want, const std::string& what) {
  for (std::size_t i = 0; i < want.value.size(); ++i) {
    ASSERT_EQ(std::memcmp(got.value[i].data(), want.value[i].data(),
                          want.value[i].size() * sizeof(float)),
              0)
        << what << ", tensor " << i;
  }
}

/// The update of Sgd::step, one element at a time.
void reference_sgd(ParamSet& p, std::vector<std::vector<float>>& velocity,
                   const Sgd::Options& o) {
  for (std::size_t i = 0; i < p.value.size(); ++i) {
    for (std::size_t j = 0; j < p.value[i].size(); ++j) {
      float g = p.grad[i][j] + o.weight_decay * p.value[i][j];
      if (o.momentum != 0.0F) {
        velocity[i][j] = o.momentum * velocity[i][j] + g;
        g = velocity[i][j];
      }
      p.value[i][j] -= o.learning_rate * g;
    }
  }
}

TEST(Sgd, StepIsBitwiseTheScalarUpdate) {
  for (const float momentum : {0.0F, 0.5F}) {
    for (const float decay : {0.0F, 1e-4F}) {
      const Sgd::Options options{.learning_rate = 0.05F, .momentum = momentum,
                                 .weight_decay = decay};
      ParamSet got, want;
      std::vector<std::vector<float>> velocity;
      for (const auto& v : want.value) velocity.emplace_back(v.size(), 0.0F);
      Sgd sgd(options);
      for (int step = 0; step < 4; ++step) {
        sgd.step(got.refs());
        reference_sgd(want, velocity, options);
        expect_bitwise_equal(got, want, "momentum " + std::to_string(momentum) + ", decay " +
                                            std::to_string(decay) + ", step " +
                                            std::to_string(step));
      }
    }
  }
}

TEST(Adam, StepIsBitwiseTheScalarUpdate) {
  for (const float decay : {0.0F, 1e-4F}) {
    const Adam::Options o{.learning_rate = 1e-2F, .weight_decay = decay};
    ParamSet got, want;
    std::vector<std::vector<float>> m, v;
    for (const auto& w : want.value) {
      m.emplace_back(w.size(), 0.0F);
      v.emplace_back(w.size(), 0.0F);
    }
    Adam adam(o);
    for (int step = 1; step <= 4; ++step) {
      adam.step(got.refs());
      const double bias1 = 1.0 - std::pow(o.beta1, static_cast<double>(step));
      const double bias2 = 1.0 - std::pow(o.beta2, static_cast<double>(step));
      for (std::size_t i = 0; i < want.value.size(); ++i) {
        for (std::size_t j = 0; j < want.value[i].size(); ++j) {
          const float g = want.grad[i][j] + o.weight_decay * want.value[i][j];
          m[i][j] = o.beta1 * m[i][j] + (1.0F - o.beta1) * g;
          v[i][j] = o.beta2 * v[i][j] + (1.0F - o.beta2) * g * g;
          const double m_hat = static_cast<double>(m[i][j]) / bias1;
          const double v_hat = static_cast<double>(v[i][j]) / bias2;
          want.value[i][j] -= static_cast<float>(o.learning_rate * m_hat /
                                                 (std::sqrt(v_hat) + o.epsilon));
        }
      }
      expect_bitwise_equal(got, want,
                           "decay " + std::to_string(decay) + ", step " + std::to_string(step));
    }
  }
}

}  // namespace
}  // namespace helcfl::nn

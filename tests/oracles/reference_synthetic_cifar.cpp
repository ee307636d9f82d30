#include "oracles/reference_synthetic_cifar.h"

#include <array>
#include <cmath>
#include <numbers>
#include <vector>

namespace helcfl::data {

using tensor::Shape;
using tensor::Tensor;

namespace {

class SmoothField {
 public:
  SmoothField(util::Rng& rng, float scale) {
    for (auto& c : components_) {
      c.fx = rng.uniform(0.5, 2.5);
      c.fy = rng.uniform(0.5, 2.5);
      c.phase = rng.uniform(0.0, 2.0 * std::numbers::pi);
      c.amp = scale * static_cast<float>(rng.uniform(0.4, 1.0));
    }
  }

  float sample(double u, double v) const {
    double value = 0.0;
    for (const auto& c : components_) {
      value += c.amp * std::sin(2.0 * std::numbers::pi * (c.fx * u + c.fy * v) + c.phase);
    }
    return static_cast<float>(value);
  }

 private:
  struct Component {
    double fx = 0.0, fy = 0.0, phase = 0.0;
    float amp = 0.0F;
  };
  std::array<Component, 3> components_{};
};

using ClassFields = std::vector<SmoothField>;  // one per channel

Dataset generate(const SyntheticCifarOptions& options,
                 const std::vector<ClassFields>& prototypes, std::size_t count,
                 util::Rng& rng) {
  const std::size_t c = options.channels;
  const std::size_t h = options.height;
  const std::size_t w = options.width;
  Tensor images(Shape{count, c, h, w});
  std::vector<std::int32_t> labels(count, 0);

  for (std::size_t n = 0; n < count; ++n) {
    const auto true_class =
        static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(
                                                        options.num_classes) - 1));
    const auto shift_y = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(options.max_shift)));
    const auto shift_x = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(options.max_shift)));

    for (std::size_t ch = 0; ch < c; ++ch) {
      const SmoothField& field = prototypes[true_class][ch];
      for (std::size_t y = 0; y < h; ++y) {
        for (std::size_t x = 0; x < w; ++x) {
          const std::size_t sy = (y + shift_y) % h;
          const std::size_t sx = (x + shift_x) % w;
          const double u = static_cast<double>(sx) / static_cast<double>(w);
          const double v = static_cast<double>(sy) / static_cast<double>(h);
          const float clean = field.sample(u, v);
          images.at(n, ch, y, x) =
              clean + static_cast<float>(rng.normal(0.0, options.noise_stddev));
        }
      }
    }

    std::size_t label = true_class;
    if (options.label_noise > 0.0F && rng.bernoulli(options.label_noise)) {
      label = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(options.num_classes) - 1));
    }
    labels[n] = static_cast<std::int32_t>(label);
  }
  return Dataset(std::move(images), std::move(labels), options.num_classes);
}

}  // namespace

TrainTestSplit reference_synthetic_cifar(const SyntheticCifarOptions& options,
                                         util::Rng& rng) {
  std::vector<ClassFields> prototypes(options.num_classes);
  for (ClassFields& fields : prototypes) {
    for (std::size_t ch = 0; ch < options.channels; ++ch) {
      fields.emplace_back(rng, options.prototype_scale);
    }
  }

  TrainTestSplit split;
  split.train = generate(options, prototypes, options.train_samples, rng);
  split.test = generate(options, prototypes, options.test_samples, rng);
  return split;
}

}  // namespace helcfl::data

#include "data/synthetic_cifar.h"

#include <array>
#include <cmath>
#include <numbers>
#include <stdexcept>
#include <string>
#include <vector>

namespace helcfl::data {

using tensor::Shape;
using tensor::Tensor;

namespace {

/// Smooth random field: sum of a few random 2-D sinusoids.  Gives each
/// class a distinctive low-frequency texture per channel.
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

/// Every class prototype rendered on the image grid, [num_classes, channels,
/// height, width]: entry (k, ch, sy, sx) is class k's channel-ch field
/// sampled at (sx / width, sy / height).  A shifted sample only re-indexes
/// it, so each value is computed once instead of once per pixel.  The fields
/// are drawn class by class, channel by channel, as they always were.
std::vector<float> render_prototypes(const SyntheticCifarOptions& options,
                                     util::Rng& rng) {
  const std::size_t h = options.height;
  const std::size_t w = options.width;
  std::vector<float> table(options.num_classes * options.channels * h * w);
  float* out = table.data();
  for (std::size_t k = 0; k < options.num_classes; ++k) {
    for (std::size_t ch = 0; ch < options.channels; ++ch) {
      const SmoothField field(rng, options.prototype_scale);
      for (std::size_t sy = 0; sy < h; ++sy) {
        for (std::size_t sx = 0; sx < w; ++sx) {
          const double u = static_cast<double>(sx) / static_cast<double>(w);
          const double v = static_cast<double>(sy) / static_cast<double>(h);
          *out++ = field.sample(u, v);
        }
      }
    }
  }
  return table;
}

Dataset generate(const SyntheticCifarOptions& options,
                 const std::vector<float>& prototypes, std::size_t count,
                 util::Rng& rng) {
  const std::size_t c = options.channels;
  const std::size_t h = options.height;
  const std::size_t w = options.width;
  Tensor images(Shape{count, c, h, w});
  std::vector<std::int32_t> labels(count, 0);

  float* out = images.data().data();
  for (std::size_t n = 0; n < count; ++n) {
    const auto true_class =
        static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(
                                                        options.num_classes) - 1));
    const auto shift_y = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(options.max_shift)));
    const auto shift_x = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(options.max_shift)));

    // Pixel (y, x) is the prototype at the circularly shifted (sy, sx) plus
    // fresh noise, written in [c, y, x] order so the noise draws keep theirs.
    const float* plane = prototypes.data() + true_class * c * h * w;
    for (std::size_t ch = 0; ch < c; ++ch, plane += h * w) {
      for (std::size_t y = 0; y < h; ++y) {
        const float* row = plane + ((y + shift_y) % h) * w;
        for (std::size_t x = 0; x < w; ++x) {
          *out++ = row[(x + shift_x) % w] +
                   static_cast<float>(rng.normal(0.0, options.noise_stddev));
        }
      }
    }

    // Label noise: re-draw uniformly with probability label_noise; this caps
    // the Bayes-optimal accuracy below 100% like real CIFAR-10 does for
    // small models.
    std::size_t label = true_class;
    if (options.label_noise > 0.0F && rng.bernoulli(options.label_noise)) {
      label = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(options.num_classes) - 1));
    }
    labels[n] = static_cast<std::int32_t>(label);
  }
  return Dataset(std::move(images), std::move(labels), options.num_classes);
}

void validate(const SyntheticCifarOptions& options) {
  const auto fail = [](const char* field, float value, const char* rule) {
    throw std::invalid_argument("make_synthetic_cifar: " + std::string(field) + " = " +
                                std::to_string(value) + " " + rule);
  };
  if (options.num_classes == 0 || options.channels == 0 || options.height == 0 ||
      options.width == 0) {
    throw std::invalid_argument("make_synthetic_cifar: zero-sized dimension");
  }
  if (!(std::isfinite(options.noise_stddev) && options.noise_stddev >= 0.0F)) {
    fail("noise_stddev", options.noise_stddev, "must be finite and >= 0");
  }
  if (!(options.label_noise >= 0.0F && options.label_noise <= 1.0F)) {
    fail("label_noise", options.label_noise, "must be in [0, 1]");
  }
  if (!std::isfinite(options.prototype_scale)) {
    fail("prototype_scale", options.prototype_scale, "must be finite");
  }
}

}  // namespace

TrainTestSplit make_synthetic_cifar(const SyntheticCifarOptions& options,
                                    util::Rng& rng) {
  validate(options);
  const std::vector<float> prototypes = render_prototypes(options, rng);

  TrainTestSplit split;
  split.train = generate(options, prototypes, options.train_samples, rng);
  split.test = generate(options, prototypes, options.test_samples, rng);
  return split;
}

}  // namespace helcfl::data

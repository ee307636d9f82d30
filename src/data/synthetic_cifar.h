// Synthetic CIFAR-10-like dataset.
//
// Real CIFAR-10 pixels are not available in this offline build, so we
// generate a 10-class image classification task with the properties the
// paper's experiments rely on (see DESIGN.md):
//   * classes are separable but not trivially: each class has a smooth
//     random prototype per channel, samples add pixel noise and a random
//     circular shift, and a fraction of labels is flipped so that accuracy
//     saturates below 100%;
//   * a model trained on a subset of classes cannot predict the rest, so
//     non-IID exclusion of users caps reachable accuracy — the mechanism
//     behind FedCS's accuracy ceiling in Fig. 2 / Table I.
#pragma once

#include <cstdint>

#include "data/dataset.h"
#include "util/rng.h"

namespace helcfl::data {

/// Generator parameters.  Defaults are tuned so a small MLP reaches
/// ~80-90% test accuracy with all data under IID training.
struct SyntheticCifarOptions {
  std::size_t num_classes = 10;
  std::size_t channels = 3;
  std::size_t height = 8;
  std::size_t width = 8;
  std::size_t train_samples = 4000;
  std::size_t test_samples = 1000;
  float noise_stddev = 2.2F;     ///< pixel noise added to the class prototype
  std::size_t max_shift = 1;     ///< circular shift in pixels, drawn U[0, max_shift]
  float label_noise = 0.12F;     ///< fraction of labels re-drawn uniformly
  float prototype_scale = 1.0F;  ///< amplitude of class prototypes
};

/// Train and test split drawn from the same generative process.
struct TrainTestSplit {
  Dataset train;
  Dataset test;
};

/// Generates the dataset.  Deterministic given `rng`'s state.  Throws
/// std::invalid_argument, before drawing anything, on a zero-sized
/// dimension, a negative or non-finite `noise_stddev`, a `label_noise`
/// outside [0, 1] (or NaN) and a non-finite `prototype_scale`.
TrainTestSplit make_synthetic_cifar(const SyntheticCifarOptions& options,
                                    util::Rng& rng);

}  // namespace helcfl::data

// Client-side local model update (Eq. 3 / Algorithm 1 line 7).
#pragma once

#include <cstddef>
#include <vector>

#include "data/dataset.h"
#include "nn/sequential.h"
#include "util/rng.h"

namespace helcfl::fl {

/// Local-update hyperparameters.  The paper's Eq. (3) is one full-batch
/// gradient-descent step per round (local_steps = 1, batch_size = 0); both
/// can be raised for FedAvg-style multi-step local training.
struct ClientOptions {
  float learning_rate = 0.3F;  ///< tau in Eq. (3)
  std::size_t local_steps = 1;
  std::size_t batch_size = 0;  ///< 0 = full batch
  float momentum = 0.0F;       ///< local SGD momentum (amplifies client drift)

  /// Throws std::invalid_argument unless learning_rate is finite and >= 0
  /// (0 freezes the model) and momentum lies in [0, 1).
  void validate() const;
};

/// Outcome of one client's round.
struct ClientUpdate {
  std::vector<float> weights;  ///< updated local model M_q^{j+1}, flattened
  double train_loss = 0.0;     ///< loss before the last step
  std::size_t num_samples = 0; ///< |D_q| used for FedAvg weighting
};

/// Runs the local update: loads `global_weights` into `model`, performs the
/// configured GD steps on the user's samples `indices` of `dataset` (its
/// D_q), and returns the updated weights.  `rng` drives mini-batch sampling
/// when batch_size > 0.  Each step's batch is copied into `scratch`, once
/// per call for full-batch steps; a scratch reused across calls keeps its
/// storage.
ClientUpdate local_update(nn::Sequential& model, std::span<const float> global_weights,
                          const data::Dataset& dataset,
                          std::span<const std::size_t> indices,
                          const ClientOptions& options, util::Rng& rng,
                          data::Batch& scratch);

}  // namespace helcfl::fl

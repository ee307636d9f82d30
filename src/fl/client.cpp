#include "fl/client.h"

#include <cmath>
#include <stdexcept>
#include <string>

#include "nn/loss.h"
#include "nn/optimizer.h"
#include "nn/serialize.h"

namespace helcfl::fl {

void ClientOptions::validate() const {
  if (!std::isfinite(learning_rate) || learning_rate < 0.0F) {
    throw std::invalid_argument("ClientOptions: learning_rate = " +
                                std::to_string(learning_rate) +
                                " must be finite and >= 0");
  }
  if (!(momentum >= 0.0F && momentum < 1.0F)) {
    throw std::invalid_argument("ClientOptions: momentum = " + std::to_string(momentum) +
                                " must lie in [0, 1)");
  }
}

ClientUpdate local_update(nn::Sequential& model, std::span<const float> global_weights,
                          const data::Dataset& dataset,
                          std::span<const std::size_t> indices,
                          const ClientOptions& options, util::Rng& rng,
                          data::Batch& scratch) {
  if (indices.empty()) {
    throw std::invalid_argument("local_update: empty local dataset");
  }
  if (options.local_steps == 0) {
    throw std::invalid_argument("local_update: local_steps must be >= 1");
  }

  nn::load_parameters(model, global_weights);
  nn::Sgd optimizer(
      {.learning_rate = options.learning_rate, .momentum = options.momentum});

  ClientUpdate update;
  update.num_samples = indices.size();

  const std::size_t n = indices.size();
  const bool full_batch = options.batch_size == 0 || options.batch_size >= n;
  if (full_batch) dataset.gather(indices, scratch);

  for (std::size_t step = 0; step < options.local_steps; ++step) {
    if (!full_batch) {
      // Sample a mini-batch without replacement from the local data: the
      // picks index the user's list, which maps them into the dataset.
      std::vector<std::size_t> picks =
          rng.sample_without_replacement(n, options.batch_size);
      for (std::size_t& pick : picks) pick = indices[pick];
      dataset.gather(picks, scratch);
    }

    model.zero_grad();
    const tensor::Tensor logits = model.forward(scratch.images, /*training=*/true);
    const nn::LossResult loss = nn::softmax_cross_entropy(logits, scratch.labels);
    if (step == 0) update.train_loss = loss.loss;
    model.accumulate_grads(loss.grad_logits);
    optimizer.step(model.params());
  }

  update.weights = nn::extract_parameters(model);
  return update;
}

}  // namespace helcfl::fl

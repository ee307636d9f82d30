#include "fl/client.h"

#include <stdexcept>

#include "nn/loss.h"
#include "nn/optimizer.h"
#include "nn/serialize.h"

namespace helcfl::fl {

ClientUpdate local_update(nn::Sequential& model, std::span<const float> global_weights,
                          const data::Batch& local_data, const ClientOptions& options,
                          util::Rng& rng) {
  if (local_data.size() == 0) {
    throw std::invalid_argument("local_update: empty local dataset");
  }
  if (options.local_steps == 0) {
    throw std::invalid_argument("local_update: local_steps must be >= 1");
  }

  nn::load_parameters(model, global_weights);
  nn::Sgd optimizer(
      {.learning_rate = options.learning_rate, .momentum = options.momentum});

  ClientUpdate update;
  update.num_samples = local_data.size();

  const std::size_t n = local_data.size();
  const bool full_batch = options.batch_size == 0 || options.batch_size >= n;

  for (std::size_t step = 0; step < options.local_steps; ++step) {
    const data::Batch* batch = &local_data;
    data::Batch minibatch;
    if (!full_batch) {
      // Sample a mini-batch without replacement from the local data.
      const auto picks = rng.sample_without_replacement(n, options.batch_size);
      const std::size_t sample_size = local_data.images.size() / n;
      minibatch.images = tensor::Tensor(tensor::Shape{
          picks.size(), local_data.images.shape()[1], local_data.images.shape()[2],
          local_data.images.shape()[3]});
      minibatch.labels.reserve(picks.size());
      for (std::size_t out = 0; out < picks.size(); ++out) {
        for (std::size_t j = 0; j < sample_size; ++j) {
          minibatch.images[out * sample_size + j] =
              local_data.images[picks[out] * sample_size + j];
        }
        minibatch.labels.push_back(local_data.labels[picks[out]]);
      }
      batch = &minibatch;
    }

    model.zero_grad();
    const tensor::Tensor logits = model.forward(batch->images, /*training=*/true);
    const nn::LossResult loss = nn::softmax_cross_entropy(logits, batch->labels);
    if (step == 0) update.train_loss = loss.loss;
    model.accumulate_grads(loss.grad_logits);
    optimizer.step(model.params());
  }

  update.weights = nn::extract_parameters(model);
  return update;
}

}  // namespace helcfl::fl

#include "fl/separated.h"

#include <algorithm>
#include <stdexcept>

#include "fl/server.h"
#include "mec/cost_model.h"
#include "nn/serialize.h"
#include "util/rng.h"

namespace helcfl::fl {

TrainingHistory train_separated(nn::Sequential& model, const data::Dataset& train,
                                const data::Dataset& test,
                                const data::Partition& partition,
                                std::span<const mec::Device> devices,
                                const SeparatedOptions& options) {
  if (devices.size() != partition.size()) {
    throw std::invalid_argument("train_separated: device/partition size mismatch");
  }
  options.client.validate();
  const std::size_t q = devices.size();
  util::Rng rng(options.seed);

  // Every user starts from the same initialization (the weights currently
  // loaded in `model`), then diverges.
  const std::vector<float> init = nn::extract_parameters(model);
  std::vector<std::vector<float>> user_weights(q, init);

  // Users whose models are averaged into the reported accuracy.
  std::vector<std::size_t> eval_users;
  if (options.eval_user_sample == 0 || options.eval_user_sample >= q) {
    eval_users.resize(q);
    for (std::size_t i = 0; i < q; ++i) eval_users[i] = i;
  } else {
    eval_users = rng.sample_without_replacement(q, options.eval_user_sample);
    std::sort(eval_users.begin(), eval_users.end());
  }

  TrainingHistory history;
  double cum_delay = 0.0;
  double cum_energy = 0.0;
  std::vector<std::size_t> everyone(q);
  for (std::size_t i = 0; i < q; ++i) everyone[i] = i;

  // One model trains and evaluates every user in turn, through one scratch.
  EvalScratch scratch;

  for (std::size_t round = 0; round < options.max_rounds; ++round) {
    double round_delay = 0.0;
    double round_energy = 0.0;
    double train_loss_sum = 0.0;
    for (std::size_t user = 0; user < q; ++user) {
      if (partition[user].empty()) continue;
      util::Rng client_rng = rng.fork(round * q + user);
      ClientUpdate update = local_update(model, user_weights[user], train,
                                         partition[user], options.client, client_rng,
                                         scratch.samples);
      user_weights[user] = std::move(update.weights);
      train_loss_sum += update.train_loss;

      const mec::Device& device = devices[user];
      round_delay =
          std::max(round_delay, mec::compute_delay_s(device, device.f_max_hz));
      round_energy += mec::compute_energy_j(device, device.f_max_hz);
    }
    cum_delay += round_delay;
    cum_energy += round_energy;

    RoundRecord record;
    record.round = round;
    record.selected = everyone;
    record.round_delay_s = round_delay;
    record.round_energy_j = round_energy;
    record.cum_delay_s = cum_delay;
    record.cum_energy_j = cum_energy;
    record.train_loss = train_loss_sum / static_cast<double>(q);

    if (round % options.eval_every == 0 || round + 1 == options.max_rounds) {
      double acc_weighted = 0.0;
      double loss_weighted = 0.0;
      double total_weight = 0.0;
      for (const std::size_t user : eval_users) {
        const auto weight = static_cast<double>(partition[user].size());
        if (weight == 0.0) continue;
        const Evaluation eval =
            evaluate(model, user_weights[user], test, options.eval_batch, scratch);
        acc_weighted += weight * eval.accuracy;
        loss_weighted += weight * eval.loss;
        total_weight += weight;
      }
      record.evaluated = total_weight > 0.0;
      if (record.evaluated) {
        record.test_accuracy = acc_weighted / total_weight;
        record.test_loss = loss_weighted / total_weight;
      }
    }
    history.add(std::move(record));
  }
  return history;
}

}  // namespace helcfl::fl

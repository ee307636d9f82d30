#include "fl/server.h"

#include <cmath>
#include <future>
#include <stdexcept>

#include "nn/loss.h"
#include "nn/serialize.h"

namespace helcfl::fl {

std::vector<float> fedavg(std::span<const WeightedModel> uploads) {
  if (uploads.empty()) throw std::invalid_argument("fedavg: no uploads");
  const std::size_t dim = uploads.front().weights.size();
  double total_weight = 0.0;
  for (const auto& upload : uploads) {
    if (upload.weights.size() != dim) {
      throw std::invalid_argument("fedavg: weight dimension mismatch");
    }
    if (!std::isfinite(upload.discount) || upload.discount < 0.0) {
      throw std::invalid_argument("fedavg: discount must be finite and non-negative");
    }
    total_weight += static_cast<double>(upload.num_samples) * upload.discount;
  }
  if (total_weight <= 0.0) {
    throw std::invalid_argument(
        "fedavg: total weight must be positive (every update was discounted "
        "or sampled to zero)");
  }

  // Accumulate in double to keep aggregation exact for Eq. (19) checks.  A
  // unit discount multiplies exactly, so a barrier round's weights are
  // num_samples / total, bit for bit.
  std::vector<double> accumulator(dim, 0.0);
  for (const auto& upload : uploads) {
    const double w =
        static_cast<double>(upload.num_samples) * upload.discount / total_weight;
    for (std::size_t i = 0; i < dim; ++i) {
      accumulator[i] += w * static_cast<double>(upload.weights[i]);
    }
  }
  std::vector<float> result(dim);
  for (std::size_t i = 0; i < dim; ++i) result[i] = static_cast<float>(accumulator[i]);
  return result;
}

EvalPlan make_eval_plan(const data::Dataset& dataset, std::size_t batch_size) {
  if (dataset.size() == 0) {
    throw std::invalid_argument("make_eval_plan: empty dataset");
  }
  if (batch_size == 0) batch_size = dataset.size();
  EvalPlan plan;
  plan.total = dataset.size();
  plan.batches.reserve((dataset.size() + batch_size - 1) / batch_size);
  std::vector<std::size_t> indices;
  for (std::size_t begin = 0; begin < dataset.size(); begin += batch_size) {
    const std::size_t end = std::min(begin + batch_size, dataset.size());
    indices.resize(end - begin);
    for (std::size_t i = begin; i < end; ++i) indices[i - begin] = i;
    plan.batches.push_back(dataset.gather(indices));
  }
  return plan;
}

Evaluation evaluate(nn::Sequential& model, std::span<const float> weights,
                    const EvalPlan& plan) {
  if (plan.total == 0) throw std::invalid_argument("evaluate: empty plan");
  nn::load_parameters(model, weights);

  double total_loss = 0.0;
  std::size_t total_correct = 0;
  for (const data::Batch& batch : plan.batches) {
    const tensor::Tensor logits = model.forward(batch.images, /*training=*/false);
    const nn::LossResult loss = nn::softmax_cross_entropy(logits, batch.labels);
    total_loss += loss.loss * static_cast<double>(batch.size());
    total_correct += loss.correct;
  }

  Evaluation eval;
  eval.loss = total_loss / static_cast<double>(plan.total);
  eval.accuracy =
      static_cast<double>(total_correct) / static_cast<double>(plan.total);
  return eval;
}

Evaluation evaluate_parallel(std::span<nn::Sequential* const> replicas,
                             std::span<const float> weights,
                             const EvalPlan& plan, util::ThreadPool& pool) {
  if (plan.total == 0) throw std::invalid_argument("evaluate: empty plan");
  if (pool.worker_count() == 0) {
    if (replicas.size() != 1) {
      throw std::invalid_argument("evaluate_parallel: inline pool needs 1 replica");
    }
    return evaluate(*replicas.front(), weights, plan);
  }
  if (replicas.size() != pool.worker_count()) {
    throw std::invalid_argument("evaluate_parallel: need one replica per worker");
  }
  for (nn::Sequential* replica : replicas) nn::load_parameters(*replica, weights);

  const std::size_t n_batches = plan.batches.size();
  std::vector<double> batch_loss(n_batches, 0.0);
  std::vector<std::size_t> batch_correct(n_batches, 0);
  std::vector<std::future<void>> futures;
  futures.reserve(n_batches);
  for (std::size_t b = 0; b < n_batches; ++b) {
    futures.push_back(pool.submit([&, b] {
      const data::Batch& batch = plan.batches[b];
      nn::Sequential& model = *replicas[util::ThreadPool::worker_index()];
      const tensor::Tensor logits = model.forward(batch.images, /*training=*/false);
      const nn::LossResult loss = nn::softmax_cross_entropy(logits, batch.labels);
      batch_loss[b] = loss.loss * static_cast<double>(batch.size());
      batch_correct[b] = loss.correct;
    }));
  }
  std::exception_ptr first_error;
  for (auto& future : futures) {
    try {
      future.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);

  // Reduce in batch order: the same summation order as the sequential path.
  double total_loss = 0.0;
  std::size_t total_correct = 0;
  for (std::size_t b = 0; b < n_batches; ++b) {
    total_loss += batch_loss[b];
    total_correct += batch_correct[b];
  }
  Evaluation eval;
  eval.loss = total_loss / static_cast<double>(plan.total);
  eval.accuracy =
      static_cast<double>(total_correct) / static_cast<double>(plan.total);
  return eval;
}

}  // namespace helcfl::fl

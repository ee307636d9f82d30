#include "fl/server.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <future>
#include <numeric>
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

namespace {

/// One eval batch's share of the loss sum (mean loss times its size) and its
/// correct count.
struct BatchScore {
  double loss = 0.0;
  std::size_t correct = 0;
};

/// The eval batches of `dataset`: `count` batches of `size` samples, the
/// last one possibly short.  eval_batch 0 means one batch of everything.
struct Batching {
  std::size_t size = 0;
  std::size_t count = 0;
};

Batching batching(const data::Dataset& dataset, std::size_t eval_batch) {
  if (dataset.size() == 0) throw std::invalid_argument("evaluate: empty dataset");
  const std::size_t size = eval_batch == 0 ? dataset.size() : eval_batch;
  return {size, (dataset.size() - 1) / size + 1};
}

/// Scores eval batch `b`: forwards it kEvalChunk samples at a time into
/// scratch.logits, then takes the loss over all of the batch's logits.
BatchScore score_batch(nn::Sequential& model, const data::Dataset& dataset,
                       const Batching& batches, std::size_t b, EvalScratch& scratch) {
  const std::size_t begin = b * batches.size;
  const std::size_t size = std::min(batches.size, dataset.size() - begin);
  std::array<std::size_t, kEvalChunk> rows{};
  for (std::size_t done = 0; done < size; done += kEvalChunk) {
    const std::size_t count = std::min(kEvalChunk, size - done);
    std::iota(rows.begin(), rows.begin() + count, begin + done);
    dataset.gather(std::span<const std::size_t>(rows.data(), count), scratch.samples);
    const tensor::Tensor logits =
        model.forward(scratch.samples.images, /*training=*/false);
    const std::size_t classes = logits.shape()[1];
    if (done == 0) scratch.logits.resize(tensor::Shape{size, classes});
    std::copy_n(logits.data().data(), logits.size(),
                scratch.logits.data().data() + done * classes);
  }
  const nn::LossResult loss =
      nn::softmax_cross_entropy(scratch.logits, dataset.labels().subspan(begin, size));
  return {loss.loss * static_cast<double>(size), loss.correct};
}

/// Reduces the batch scores in batch order, the same summation order for
/// every worker count.
Evaluation reduce(std::span<const BatchScore> scores, std::size_t total) {
  double total_loss = 0.0;
  std::size_t total_correct = 0;
  for (const BatchScore& score : scores) {
    total_loss += score.loss;
    total_correct += score.correct;
  }
  Evaluation eval;
  eval.loss = total_loss / static_cast<double>(total);
  eval.accuracy = static_cast<double>(total_correct) / static_cast<double>(total);
  return eval;
}

}  // namespace

Evaluation evaluate(nn::Sequential& model, std::span<const float> weights,
                    const data::Dataset& dataset, std::size_t eval_batch,
                    EvalScratch& scratch) {
  const Batching batches = batching(dataset, eval_batch);
  nn::load_parameters(model, weights);
  std::vector<BatchScore> scores(batches.count);
  for (std::size_t b = 0; b < batches.count; ++b) {
    scores[b] = score_batch(model, dataset, batches, b, scratch);
  }
  return reduce(scores, dataset.size());
}

Evaluation evaluate_parallel(std::span<nn::Sequential* const> replicas,
                             std::span<EvalScratch> scratch,
                             std::span<const float> weights,
                             const data::Dataset& dataset, std::size_t eval_batch,
                             util::ThreadPool& pool) {
  const Batching batches = batching(dataset, eval_batch);
  if (pool.worker_count() == 0) {
    if (replicas.size() != 1 || scratch.size() != 1) {
      throw std::invalid_argument(
          "evaluate_parallel: inline pool needs 1 replica and 1 scratch");
    }
    return evaluate(*replicas.front(), weights, dataset, eval_batch, scratch.front());
  }
  if (replicas.size() != pool.worker_count() || scratch.size() != pool.worker_count()) {
    throw std::invalid_argument(
        "evaluate_parallel: need one replica and one scratch per worker");
  }
  for (nn::Sequential* replica : replicas) nn::load_parameters(*replica, weights);

  std::vector<BatchScore> scores(batches.count);
  std::vector<std::future<void>> futures;
  futures.reserve(batches.count);
  for (std::size_t b = 0; b < batches.count; ++b) {
    futures.push_back(pool.submit([&, b] {
      const std::size_t worker = util::ThreadPool::worker_index();
      scores[b] = score_batch(*replicas[worker], dataset, batches, b, scratch[worker]);
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
  return reduce(scores, dataset.size());
}

}  // namespace helcfl::fl

#include "oracles/reference_eval.h"

#include <algorithm>

#include "nn/loss.h"
#include "nn/serialize.h"

namespace helcfl::fl {

ReferenceEvalPlan make_reference_eval_plan(const data::Dataset& dataset,
                                           std::size_t batch_size) {
  if (batch_size == 0) batch_size = dataset.size();
  ReferenceEvalPlan plan;
  plan.total = dataset.size();
  std::vector<std::size_t> indices;
  for (std::size_t begin = 0; begin < dataset.size(); begin += batch_size) {
    const std::size_t end = std::min(begin + batch_size, dataset.size());
    indices.resize(end - begin);
    for (std::size_t i = begin; i < end; ++i) indices[i - begin] = i;
    plan.batches.push_back(dataset.gather(indices));
  }
  return plan;
}

Evaluation reference_evaluate(nn::Sequential& model, std::span<const float> weights,
                              const ReferenceEvalPlan& plan) {
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
  eval.accuracy = static_cast<double>(total_correct) / static_cast<double>(plan.total);
  return eval;
}

}  // namespace helcfl::fl

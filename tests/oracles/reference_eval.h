// Evaluation by copying the batches first: every eval batch of the dataset
// is gathered into its own tensor up front, then forwarded whole.
//
// Kept as the *bitwise oracle* for fl::evaluate and fl::evaluate_parallel,
// which read the dataset in place and forward each batch in chunks of
// fl::kEvalChunk samples.  The loss is reduced the same way here: the mean
// cross-entropy over each batch's logits, times the batch size, summed in
// batch order.  tests/test_server.cpp requires bit-for-bit agreement.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "data/dataset.h"
#include "fl/server.h"
#include "nn/sequential.h"

namespace helcfl::fl {

/// The eval batches of one dataset, each a copy of its samples.
struct ReferenceEvalPlan {
  std::vector<data::Batch> batches;
  std::size_t total = 0;  ///< dataset size = sum of batch sizes
};

/// Gathers `dataset` into eval batches of `batch_size` (0 = one batch of
/// everything), covering [0, size) in order.
ReferenceEvalPlan make_reference_eval_plan(const data::Dataset& dataset,
                                           std::size_t batch_size);

/// Loads `weights` into `model` and forwards every batch of `plan` whole.
Evaluation reference_evaluate(nn::Sequential& model, std::span<const float> weights,
                              const ReferenceEvalPlan& plan);

}  // namespace helcfl::fl

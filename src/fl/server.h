// Server-side (FLCC) operations: FedAvg aggregation (Eq. 18) and global
// model evaluation.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "data/dataset.h"
#include "nn/sequential.h"
#include "util/thread_pool.h"

namespace helcfl::fl {

/// One uploaded model with its FedAvg weight |D_q| · discount.  A barrier
/// round leaves discount at 1; the async engine passes FedBuff's staleness
/// discount 1 / (1 + staleness)^β (docs/ASYNC.md).
struct WeightedModel {
  std::span<const float> weights;
  std::size_t num_samples = 0;
  double discount = 1.0;  ///< in [0, 1]; 1 = a perfectly fresh update
};

/// FedAvg (Eq. 18): the average of the uploaded models, each weighed by
/// num_samples * discount.  All weight vectors must have equal length,
/// every discount must be finite and non-negative, and the total weight
/// must be positive: a buffer whose every entry was discounted or sampled
/// to zero cannot define an average.
std::vector<float> fedavg(std::span<const WeightedModel> uploads);

/// Evaluation result of a model on a dataset.
struct Evaluation {
  double loss = 0.0;
  double accuracy = 0.0;  ///< fraction correct in [0, 1]
};

/// The evaluation batches of one dataset, gathered once and reused.  The
/// trainer evaluates the same test set every eval round (and the separated
/// baseline evaluates every user's model on it), so re-gathering the batch
/// tensors per evaluation is pure waste — a plan materializes them once.
/// Batches cover [0, total) in order.
struct EvalPlan {
  std::vector<data::Batch> batches;
  std::size_t total = 0;  ///< dataset size = sum of batch sizes
};

/// Gathers `dataset` into evaluation batches of `batch_size` (0 = one
/// batch of everything).  Throws on an empty dataset.
EvalPlan make_eval_plan(const data::Dataset& dataset, std::size_t batch_size);

/// Evaluates `model` (with `weights` loaded) over a pre-gathered plan.
/// Leaves `weights` loaded in the model.  Repeated calls against the same
/// model reuse its layer scratch (conv chunk panels, packed weight panels),
/// so steady-state evaluation allocates only activations.
Evaluation evaluate(nn::Sequential& model, std::span<const float> weights,
                    const EvalPlan& plan);

/// Multi-threaded evaluate: distributes the evaluation batches over `pool`,
/// where worker i forwards through `replicas[i]` (one model per worker, so
/// layer caches never race).  `weights` is loaded into every replica first
/// and per-batch losses are reduced in batch order, making the result
/// bitwise identical to the sequential evaluate above for any worker count.
/// Requires replicas.size() == pool.worker_count(); with an inline pool
/// (worker_count() == 0) it requires exactly one replica and degrades to
/// the sequential path.
Evaluation evaluate_parallel(std::span<nn::Sequential* const> replicas,
                             std::span<const float> weights,
                             const EvalPlan& plan, util::ThreadPool& pool);

}  // namespace helcfl::fl

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

/// Samples per forward when evaluating.  An eval forward works sample by
/// sample (BatchNorm reads its running statistics, Dropout is the identity,
/// and no kernel's per-element order depends on the batch; docs/KERNELS.md),
/// so the chunk size bounds the activations held at once without moving a
/// logit bit.
inline constexpr std::size_t kEvalChunk = 64;

/// The storage one model's evaluation reuses across calls: the chunk of
/// samples copied out of the dataset, and one eval batch's logits.  Both
/// keep their storage, so steady-state evaluation allocates only the
/// model's activations.  The round engines' clients gather their training
/// batches into `samples` too (fl/round_stages.h).
struct EvalScratch {
  data::Batch samples;
  tensor::Tensor logits;
};

/// Evaluates `model` (with `weights` loaded) on `dataset`, read in place.
/// The loss is reduced per eval batch of `eval_batch` samples (0 = one
/// batch of everything), in dataset order: the mean cross-entropy over the
/// batch's logits, times its size, summed over batches.  Each batch is
/// forwarded in chunks of kEvalChunk samples.  Leaves `weights` loaded in
/// the model.  Throws on an empty dataset.
Evaluation evaluate(nn::Sequential& model, std::span<const float> weights,
                    const data::Dataset& dataset, std::size_t eval_batch,
                    EvalScratch& scratch);

/// Multi-threaded evaluate: distributes the eval batches over `pool`, where
/// worker i forwards through `replicas[i]` with `scratch[i]` (one model and
/// one scratch per worker, so layer caches never race).  `weights` is loaded
/// into every replica first and per-batch losses are reduced in batch
/// order, making the result bitwise identical to the sequential evaluate
/// above for any worker count.  Requires replicas.size() ==
/// pool.worker_count() == scratch.size(); with an inline pool
/// (worker_count() == 0) it requires exactly one replica and one scratch
/// and degrades to the sequential path.
Evaluation evaluate_parallel(std::span<nn::Sequential* const> replicas,
                             std::span<EvalScratch> scratch,
                             std::span<const float> weights,
                             const data::Dataset& dataset, std::size_t eval_batch,
                             util::ThreadPool& pool);

}  // namespace helcfl::fl

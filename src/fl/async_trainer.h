// Event-driven async round engine (FedBuff-style; DESIGN.md §16,
// docs/ASYNC.md).
//
// fl/trainer.cpp advances time one round barrier at a time: every selected
// client must land (or be cut off) before the server aggregates, so a
// single straggler gates the whole cohort.  AsyncTrainer drops the barrier:
// a global clock advances event by event through fl::EventQueue — client
// compute completions, TDMA upload completions, crash burn-outs, and churn
// boundaries — and the server aggregates as soon as the first K updates
// arrive, applying the weighted-mean *delta* from each client's dispatch
// base, discounted by its staleness
// (weight ∝ num_samples / (1 + staleness)^β), and re-dispatching freed
// devices immediately through the existing SelectionStrategy machinery.
//
// Sync mode is not a second engine: AsyncTrainer::run() with mode = kSync
// runs fl::stages::run_barrier, the very code FederatedTrainer::run() runs,
// so the two are bitwise identical by construction — final weights,
// per-round metrics, the history CSV bytes, and the trace
// (tests/test_async_differential.cpp).  Async mode shares every other
// stage of fl/round_stages.h (the selectable fleet, local training, the
// cohort runner, evaluation, round bookkeeping, checkpoint fields) and
// fl::fedavg, and keeps only the event loop, dispatch bookkeeping, and its
// checkpoint frame.  That the
// EventQueue's (time, seq) pop order equals insertion order on equal
// timestamps — the TDMA grant order — is pinned by tests/test_event_queue.cpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

#include "data/dataset.h"
#include "data/partition.h"
#include "fl/metrics.h"
#include "fl/round_stages.h"
#include "fl/trainer.h"
#include "mec/channel.h"
#include "mec/device.h"
#include "nn/sequential.h"
#include "sched/scheduler.h"

namespace helcfl::fl {

/// Knobs of the async engine, layered on top of TrainerOptions.
struct AsyncOptions {
  enum class Mode {
    kSync,   ///< barrier engine: bitwise identical to FederatedTrainer
    kAsync,  ///< event-driven: buffered staleness-discounted aggregation
  };

  Mode mode = Mode::kSync;

  /// FedBuff's K: the server aggregates once this many updates have
  /// arrived.  0 = the size of the first dispatched cohort (the semi-async
  /// regime: cohort-sized buffers without a barrier — slow devices keep
  /// computing across server steps instead of gating them).
  std::size_t buffer_k = 0;

  /// Staleness discount exponent β: an update trained on the model of
  /// `staleness` aggregations ago enters FedAvg with weight
  /// num_samples / (1 + staleness)^β.  0 disables discounting.
  double staleness_beta = 0.5;

  /// Bounded staleness: arrivals staler than this many server steps are
  /// dropped (their energy is wasted, `async.dropped_stale`).  0 = keep
  /// every arrival.
  std::size_t staleness_bound = 0;

  /// Throws std::invalid_argument on the first inconsistent knob.
  void validate() const;
};

/// Parses "sync" | "async" (helcfl_cli --mode); throws on anything else.
AsyncOptions::Mode parse_async_mode(const std::string& text);
std::string async_mode_name(AsyncOptions::Mode mode);

/// Discrete-event FL trainer over a simulated MEC fleet.  Construction
/// mirrors FederatedTrainer (same borrow contract: model, datasets,
/// devices, channel, and strategy must outlive the trainer).
class AsyncTrainer {
 public:
  AsyncTrainer(nn::Sequential& model, const data::Dataset& train,
               const data::Dataset& test, const data::Partition& partition,
               std::span<const mec::Device> devices, const mec::Channel& channel,
               sched::SelectionStrategy& strategy, TrainerOptions options,
               AsyncOptions async_options);

  /// Runs the engine to completion and returns the trace.  In sync mode
  /// one RoundRecord per barrier round (bitwise identical to
  /// FederatedTrainer::run()); in async mode one RoundRecord per server
  /// step (aggregation).  The final global model remains loaded in the
  /// model passed at construction.
  TrainingHistory run();

 private:
  TrainingHistory run_async_();

  stages::World world_;
  AsyncOptions async_;
};

}  // namespace helcfl::fl

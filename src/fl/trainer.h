// Algorithm 1: the HELCFL training loop (also drives every baseline via
// the SelectionStrategy interface).
//
// Each round:  strategy picks Γ_j and F_Γj (line 4)  ->  selected clients
// update locally at their determined frequencies (line 7)  ->  uploads are
// serialized on the TDMA uplink (line 8, Fig. 1)  ->  FedAvg integration
// (line 10)  ->  delay/energy accounting via Eqs. (10)-(11) and the
// deadline check of constraint (14).  The round is a sequence of the named
// stages in fl/round_stages.h (DESIGN.md §7).
#pragma once

#include <span>

#include "data/dataset.h"
#include "data/partition.h"
#include "fl/metrics.h"
#include "fl/options.h"
#include "fl/round_stages.h"
#include "mec/channel.h"
#include "mec/device.h"
#include "nn/sequential.h"
#include "sched/scheduler.h"

namespace helcfl::fl {

/// Synchronous FL trainer over a simulated MEC fleet.
///
/// The model, datasets, devices, channel and strategy are borrowed and must
/// outlive the trainer.  `devices[i].num_samples` must equal
/// `partition[i].size()` so the delay/energy models and FedAvg weighting
/// agree (Eq. 4 vs Eq. 18).
class FederatedTrainer {
 public:
  FederatedTrainer(nn::Sequential& model, const data::Dataset& train,
                   const data::Dataset& test, const data::Partition& partition,
                   std::span<const mec::Device> devices, const mec::Channel& channel,
                   sched::SelectionStrategy& strategy, TrainerOptions options);

  /// Runs up to max_rounds rounds (stopping at the deadline or the target
  /// accuracy) and returns the full trace.  The final global model remains
  /// loaded in the model passed at construction.
  TrainingHistory run() { return stages::run_barrier(world_); }

 private:
  stages::World world_;
};

}  // namespace helcfl::fl

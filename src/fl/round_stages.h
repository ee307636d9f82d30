// The stages of one FL round (Algorithm 1; DESIGN.md §7), shared by both
// round engines.  fl/trainer.cpp strings them into the barrier round —
// select -> DVFS check -> local train -> TDMA/faults -> aggregate ->
// evaluate — and fl/async_trainer.cpp into its event loop.  Every stage is
// a free function over explicit state: the World an engine is constructed
// over, and the RunContext one run() builds.  Both engines calling the same
// code is what keeps sync mode of fl::AsyncTrainer bitwise identical to
// fl::FederatedTrainer (docs/ASYNC.md).
#pragma once

#include <cstddef>
#include <cstdint>
#include <future>
#include <memory>
#include <span>
#include <vector>

#include "data/dataset.h"
#include "data/partition.h"
#include "fl/checkpoint.h"
#include "fl/client.h"
#include "fl/metrics.h"
#include "fl/options.h"
#include "fl/server.h"
#include "mec/battery.h"
#include "mec/channel.h"
#include "mec/device.h"
#include "mec/fading.h"
#include "mec/faults.h"
#include "nn/sequential.h"
#include "obs/trace.h"
#include "sched/scheduler.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace helcfl::obs {
class PhaseProfiler;
class Registry;
}  // namespace helcfl::obs

namespace helcfl::fl::stages {

/// Construction-time world of a round engine.  The model, datasets, devices,
/// channel and strategy are borrowed and must outlive the engine.
struct World {
  /// Validates `options` and the device/partition agreement, then runs the
  /// initialization phase (Algorithm 1 lines 1-2).  `engine` prefixes every
  /// error and log message.
  World(const char* engine, nn::Sequential& model, const data::Dataset& train,
        const data::Dataset& test, const data::Partition& partition,
        std::span<const mec::Device> devices, const mec::Channel& channel,
        sched::SelectionStrategy& strategy, TrainerOptions options);

  bool batteries_enabled() const { return batteries.size() > 0; }
  /// Charged devices (the whole fleet when batteries are disabled).
  std::size_t alive_users() const;

  const char* engine;
  nn::Sequential& model;
  const data::Dataset& test;
  std::span<const mec::Device> devices;
  mec::Channel channel;
  sched::SelectionStrategy& strategy;
  TrainerOptions options;
  std::vector<sched::UserInfo> users;
  std::vector<data::Batch> user_data;  ///< gathered once at construction
  mec::BatteryFleet batteries;         ///< empty when batteries disabled
};

/// Everything one run() rebuilds: stream cursors, the worker pool and its
/// replicas, the global model, and the run's running totals.
struct RunContext {
  /// Resets the strategy and attaches the observability sinks.
  explicit RunContext(World& world);

  /// True when a tracer is attached and records `level`.
  bool traces(obs::TraceLevel level) const {
    return tracer != nullptr && tracer->enabled(level);
  }

  // Observability sinks (DESIGN.md §9): every use is read-only — a null
  // check followed by emitting values the round already computed.
  obs::Tracer* tracer;
  obs::PhaseProfiler* profiler;
  obs::Registry* registry;

  util::Rng batch_rng;
  mec::FadingProcess fading;
  mec::FaultInjector injector;
  std::size_t max_attempts;  ///< 1 + max_upload_retries

  // Parallel round-execution engine (DESIGN.md §7): a fixed worker pool
  // with one model replica per worker.  num_threads <= 1 spawns no workers
  // and every client trains inline on the borrowed model — the reference
  // sequential path.  Replicas never outlive the pool that indexes them.
  util::ThreadPool pool;
  std::vector<std::unique_ptr<nn::Sequential>> replicas;
  /// The replicas, or the borrowed model alone when the pool is inline.
  std::vector<nn::Sequential*> eval_models;
  /// Persistent non-trainable buffers (BatchNorm running statistics): each
  /// client starts from a round-start snapshot regardless of the worker it
  /// lands on, and the server adopts the last aggregated client's buffers,
  /// so the protocol is thread-count invariant.
  bool has_state;

  std::vector<float> global_weights;
  EvalPlan eval_plan;
  TrainingHistory history;
  double cum_delay = 0.0;
  double cum_energy = 0.0;
  double cum_wasted_energy = 0.0;
  double best_accuracy = -1.0;
  /// Kernel scratch growths already exported (`kernel.scratch_reallocs`).
  std::uint64_t scratch_reported;
};

// --- checkpoint resume (DESIGN.md §11): parse-then-commit ---

/// Reads options.resume_from and rejects a snapshot whose seed, fleet,
/// model shape, strategy, batteries, or engine mode (`async_engine`) does
/// not match this world.  Throws CheckpointError; mutates nothing.
Checkpoint read_resume_checkpoint(const World& world, const RunContext& ctx,
                                  bool async_engine);

/// Parses the shared stream cursors into `ctx`, the battery state into the
/// returned copy, and the strategy state last (all-or-nothing).  Throws
/// CheckpointError naming the file; the world's durable state is untouched.
mec::BatteryFleet parse_resume_cursors(World& world, RunContext& ctx,
                                       const Checkpoint& ckpt);

/// Commits a parsed snapshot: batteries, model state, weights, records, and
/// running totals.  Nothing here throws.
void commit_resume(World& world, RunContext& ctx, const Checkpoint& ckpt,
                   mec::BatteryFleet batteries);

// --- checkpoint writes ---

/// True when `completed` rounds (or resolutions) hit the cadence.
bool checkpoint_due(const TrainerOptions& options, std::uint64_t completed);

/// The engine-independent fields of a snapshot taken now.
Checkpoint snapshot(const World& world, const RunContext& ctx,
                    std::uint64_t next_round);

/// Writes `ckpt` to checkpoint_path with "{round}" expanded to `completed`
/// and emits `checkpoint_write` tagged with `round`.
void write_checkpoint(const World& world, const RunContext& ctx,
                      const Checkpoint& ckpt, std::size_t completed,
                      std::size_t round);

// --- one client ---

/// Per-client inputs resolved on the coordinator thread, in selection
/// order, so a client's draws never depend on when or where its task runs.
struct ClientDraw {
  double fade = 1.0;          ///< this round's channel-gain multiplier
  util::Rng rng;              ///< mini-batch stream
  mec::ClientFaults faults;   ///< injected faults (none when inactive)
};

/// Forks the client's mini-batch stream off `stream_key` and draws its
/// faults keyed on (`fault_round`, user).
ClientDraw draw_client(RunContext& ctx, std::size_t user, std::uint64_t stream_key,
                       std::uint64_t fault_round);

/// Line 4's fleet: the strategy only sees devices that are charged
/// (battery extension), present (churn), and — for the async engine — not
/// `busy` with an earlier dispatch.  With no busy mask, a lone churn or
/// battery mask is passed through and no mask at all leaves `alive` empty;
/// otherwise `storage` backs the combined mask.
sched::FleetView selectable_fleet(const World& world, const RunContext& ctx,
                                  std::span<const std::uint8_t> busy,
                                  std::vector<std::uint8_t>& storage);

/// DVFS check of Algorithm 1 line 4: throws std::logic_error unless the
/// decision is well-formed, every pick is selectable, and every frequency
/// lies in its device's DVFS range.
void check_decision(const World& world, const sched::FleetView& fleet,
                    const sched::Decision& decision);

/// Everything one client's local round produces.
struct ClientOutcome {
  ClientUpdate update;             ///< weights already post-compression
  double compute_delay_s = 0.0;    ///< Eq. (4), stretched by a straggler
  double upload_duration_s = 0.0;  ///< one TDMA attempt (Eq. 7)
  double occupancy_s = 0.0;        ///< uplink time incl. retries and backoff
  double energy_j = 0.0;           ///< all cycles and transmissions, Eqs. (5)+(8)
  std::vector<float> state;        ///< post-training persistent buffers
  bool trained = false;            ///< local update produced (false = crashed)
  bool upload_ok = true;           ///< false = every upload attempt failed
  std::size_t attempts = 0;        ///< transmissions made (0 for crashed clients)
};

/// Algorithm 1 line 7 for one client at DVFS frequency `f`: the local
/// update from ctx.global_weights (on the calling worker's replica), upload
/// compression, and the faded Eq. 4/5/7/8 costs.  `start_state` is the
/// persistent-buffer snapshot the client starts from.
ClientOutcome train_client(World& world, RunContext& ctx, std::size_t round,
                           std::size_t user, double f, const ClientDraw& draw,
                           std::span<const float> start_state);

/// Joins every future before any exception escapes (the tasks reference
/// the caller's frame), then throws one std::runtime_error naming every
/// failed client of `users`.
void join_cohort(const World& world, std::vector<std::future<void>>& futures,
                 std::span<const std::size_t> users, std::size_t round);

/// Runs task(k) for k in [0, count): inline when the pool has no workers,
/// otherwise one pool task per client, joined by join_cohort.
template <class Task>
void run_cohort(const World& world, RunContext& ctx, std::size_t count,
                std::span<const std::size_t> users, std::size_t round,
                const Task& task) {
  if (ctx.pool.worker_count() == 0) {
    for (std::size_t k = 0; k < count; ++k) task(k);
    return;
  }
  std::vector<std::future<void>> futures;
  futures.reserve(count);
  for (std::size_t k = 0; k < count; ++k) {
    futures.push_back(ctx.pool.submit([&task, k] { task(k); }));
  }
  join_cohort(world, futures, users, round);
}

// --- round close ---

/// Records a round in which churn emptied the selectable fleet.
void skip_round(const World& world, RunContext& ctx, std::size_t round,
                std::size_t available);

/// Closes a round: evaluates the global model on the eval cadence, updates
/// the best accuracy and the registry, emits `round_end`, and appends
/// `record` to the history.  `trained` counts the round's trained clients.
/// Returns whether the target accuracy was reached.
bool close_round(World& world, RunContext& ctx, RoundRecord record,
                 std::size_t trained, bool last, bool over_deadline);

/// Algorithm 1's exits after a closed round: the deadline, the target
/// accuracy, or a flattened training-loss window.
bool should_stop(const World& world, const RunContext& ctx, std::size_t round,
                 bool over_deadline, bool target_reached);

/// Opens the trace with `run_start`: the shared fields, then `extra`.
void emit_run_start(const World& world, const RunContext& ctx,
                    std::span<const obs::Field> extra = {});

/// Emits `run_end`, loads the final global model, and returns the history.
TrainingHistory finish_run(World& world, RunContext& ctx);

/// The barrier engine (fl/trainer.cpp): FederatedTrainer::run() and
/// AsyncTrainer::run() in sync mode.
TrainingHistory run_barrier(World& world);

}  // namespace helcfl::fl::stages

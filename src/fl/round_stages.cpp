#include "fl/round_stages.h"

#include <algorithm>
#include <cmath>
#include <exception>
#include <stdexcept>
#include <string>

#include "mec/cost_model.h"
#include "nn/compression.h"
#include "nn/serialize.h"
#include "util/file_io.h"
#include "obs/profiler.h"
#include "obs/registry.h"
#include "tensor/ops.h"
#include "util/log.h"
#include "util/serial.h"

namespace helcfl::fl {

void TrainerOptions::validate(std::size_t n_users) const {
  if (eval_every == 0) {
    throw std::invalid_argument(
        "TrainerOptions: eval_every must be >= 1 (it is the modulus of the "
        "evaluation cadence; use a large value to evaluate rarely)");
  }
  if (eval_batch == 0) {
    throw std::invalid_argument(
        "TrainerOptions: eval_batch must be >= 1 (0 would make evaluation loop "
        "forever)");
  }
  if (std::isnan(deadline_s) || deadline_s < 0.0) {
    throw std::invalid_argument(
        "TrainerOptions: deadline_s = " + std::to_string(deadline_s) +
        " must be >= 0 (use infinity, the default, for no deadline)");
  }
  if (!(model_size_bits > 0.0) || !std::isfinite(model_size_bits)) {
    throw std::invalid_argument(
        "TrainerOptions: model_size_bits = " + std::to_string(model_size_bits) +
        " must be a positive finite payload (Eq. 7 divides by the uplink rate; "
        "a non-positive size makes delay and energy meaningless)");
  }
  if (min_clients == 0) {
    throw std::invalid_argument(
        "TrainerOptions: min_clients must be >= 1 (FedAvg over zero survivors "
        "is undefined; 1 restores the pre-quorum behaviour)");
  }
  if (n_users > 0 && min_clients > n_users) {
    throw std::invalid_argument(
        "TrainerOptions: min_clients = " + std::to_string(min_clients) +
        " exceeds the fleet size " + std::to_string(n_users) +
        "; no round could ever meet its quorum");
  }
  if (std::isnan(retry_backoff_s) || retry_backoff_s < 0.0) {
    throw std::invalid_argument("TrainerOptions: retry_backoff_s must be >= 0");
  }
  if (std::isnan(straggler_cutoff_s) || straggler_cutoff_s <= 0.0) {
    throw std::invalid_argument(
        "TrainerOptions: straggler_cutoff_s must be positive (use infinity, "
        "the default, to wait for every upload)");
  }
  if (checkpoint_every > 0 && checkpoint_path.empty()) {
    throw std::invalid_argument(
        "TrainerOptions: checkpoint_every = " + std::to_string(checkpoint_every) +
        " but checkpoint_path is empty; set checkpoint_path to the file the "
        "snapshots should be written to");
  }
  if (checkpoint_every == 0 && !checkpoint_path.empty()) {
    throw std::invalid_argument(
        "TrainerOptions: checkpoint_path = '" + checkpoint_path +
        "' but checkpoint_every is 0, so no checkpoint would ever be written; "
        "set checkpoint_every >= 1 (or clear checkpoint_path)");
  }
  faults.validate();
}

namespace stages {

World::World(const char* engine, nn::Sequential& model, const data::Dataset& train,
             const data::Dataset& test, const data::Partition& partition,
             std::span<const mec::Device> devices, const mec::Channel& channel,
             sched::SelectionStrategy& strategy, TrainerOptions options)
    : engine(engine),
      model(model),
      test(test),
      devices(devices),
      channel(channel),
      strategy(strategy),
      options(std::move(options)) {
  this->options.validate(devices.size());
  if (devices.size() != partition.size()) {
    throw std::invalid_argument(std::string(engine) +
                                ": device/partition size mismatch");
  }
  for (std::size_t i = 0; i < devices.size(); ++i) {
    if (devices[i].num_samples != partition[i].size()) {
      throw std::invalid_argument(
          std::string(engine) + ": device " + std::to_string(i) + " declares " +
          std::to_string(devices[i].num_samples) + " samples but partition has " +
          std::to_string(partition[i].size()));
    }
  }

  // Initialization phase (Algorithm 1 lines 1-2): the FLCC learns every
  // device's resource information and derives the delays.
  users = sched::build_user_info(devices, this->channel, this->options.model_size_bits);

  // Gather each user's local data once; rounds reuse the cached batches.
  user_data.reserve(partition.size());
  for (const auto& indices : partition) {
    user_data.push_back(train.gather(indices));
  }

  if (this->options.battery_capacity_j > 0.0) {
    batteries = mec::BatteryFleet(devices.size(), this->options.battery_capacity_j);
  }
}

std::size_t World::alive_users() const {
  return batteries_enabled() ? batteries.alive_count() : users.size();
}

RunContext::RunContext(World& world)
    : tracer(world.options.obs.tracer),
      profiler(world.options.obs.profiler),
      registry(world.options.obs.registry),
      batch_rng(world.options.seed),
      fading(world.users.size(), world.options.fading,
             util::Rng(world.options.seed).fork(0xFAD1A6)),
      // Fault streams are forked off the same seed but independent of the
      // mini-batch streams, so enabling faults never perturbs what a
      // surviving client trains on.
      injector(world.users.size(), world.options.faults,
               util::Rng(world.options.seed).fork(0xFA0175)),
      max_attempts(1 + world.options.max_upload_retries),
      pool(util::ThreadPool::resolve_thread_count(world.options.num_threads)),
      has_state(nn::state_count(world.model) > 0),
      global_weights(nn::extract_parameters(world.model)),
      // Batched evaluation (docs/KERNELS.md): the test set is gathered into
      // batch tensors once and reused every eval round — together with the
      // persistent eval models, steady-state evaluation re-derives no batch
      // data and repacks no weight panels beyond the per-eval weight load.
      eval_plan(make_eval_plan(world.test, world.options.eval_batch)),
      // Kernel scratch growths are exported as a per-round delta of the
      // process-global counter: after warm-up rounds the delta must sit at
      // zero — the steady-state no-alloc audit, visible in the metrics.
      scratch_reported(tensor::scratch_realloc_count()) {
  world.strategy.reset();
  world.strategy.set_instruments(world.options.obs);
  injector.set_tracer(tracer);
  replicas.reserve(pool.worker_count());
  for (std::size_t i = 0; i < pool.worker_count(); ++i) {
    replicas.push_back(std::make_unique<nn::Sequential>(world.model));
    eval_models.push_back(replicas.back().get());
  }
  if (eval_models.empty()) eval_models.push_back(&world.model);
}

Checkpoint read_resume_checkpoint(const World& world, const RunContext& ctx,
                                  bool async_engine) {
  const std::string& from = world.options.resume_from;
  Checkpoint ckpt = Checkpoint::read_file(from);
  if (ckpt.n_users != world.users.size()) {
    throw CheckpointError("'" + from + "': saved for " + std::to_string(ckpt.n_users) +
                          " users, this trainer has " +
                          std::to_string(world.users.size()));
  }
  if (ckpt.seed != world.options.seed) {
    throw CheckpointError(
        "'" + from + "': saved under seed " + std::to_string(ckpt.seed) +
        ", this trainer uses seed " + std::to_string(world.options.seed) +
        " — resuming would silently diverge from the original run");
  }
  if (ckpt.strategy_name != world.strategy.name()) {
    throw CheckpointError("'" + from + "': saved with strategy '" +
                          ckpt.strategy_name + "', this trainer uses '" +
                          world.strategy.name() + "'");
  }
  if (ckpt.global_weights.size() != ctx.global_weights.size()) {
    throw CheckpointError("'" + from + "': saved model has " +
                          std::to_string(ckpt.global_weights.size()) +
                          " parameters, this trainer's model has " +
                          std::to_string(ctx.global_weights.size()));
  }
  if (ckpt.model_state.size() != nn::state_count(world.model)) {
    throw CheckpointError("'" + from + "': saved model has " +
                          std::to_string(ckpt.model_state.size()) +
                          " persistent state scalars, this trainer's model has " +
                          std::to_string(nn::state_count(world.model)));
  }
  if (ckpt.batteries_enabled != world.batteries_enabled()) {
    throw CheckpointError(
        "'" + from + "': saved with batteries " +
        std::string(ckpt.batteries_enabled ? "enabled" : "disabled") +
        ", this trainer has them " +
        std::string(world.batteries_enabled() ? "enabled" : "disabled"));
  }
  if (ckpt.async_enabled && !async_engine) {
    throw CheckpointError(
        "'" + from +
        "': saved mid-flight by the async engine; resume it with an "
        "async-mode fl::AsyncTrainer (docs/ASYNC.md)");
  }
  if (!ckpt.async_enabled && async_engine) {
    throw CheckpointError(
        "'" + from +
        "': saved by the sync engine; resume it with FederatedTrainer or "
        "an AsyncTrainer in --mode=sync (docs/ASYNC.md)");
  }
  return ckpt;
}

mec::BatteryFleet parse_resume_cursors(World& world, RunContext& ctx,
                                       const Checkpoint& ckpt) {
  mec::BatteryFleet restored_batteries;
  try {
    // Run-local cursors first (reconstructed on every run(), so partial
    // mutation cannot outlive a failure)...
    util::load_state_exact(ctx.injector, ckpt.injector_state,
                           "checkpoint injector state");
    util::load_state_exact(ctx.fading, ckpt.fading_state, "checkpoint fading state");
    ctx.batch_rng.set_state(ckpt.batch_rng);
    // ...then the durable battery state parsed into a copy...
    if (world.batteries_enabled()) {
      restored_batteries = world.batteries;
      util::load_state_exact(restored_batteries, ckpt.battery_state,
                             "checkpoint battery state");
    }
    // ...and the strategy last: it parses its whole payload before
    // touching any member (scheduler.h contract), so this either fully
    // restores or fully leaves the just-reset() state.
    util::load_state_exact(world.strategy, ckpt.strategy_state,
                           "checkpoint strategy state");
  } catch (const std::exception& error) {
    throw CheckpointError("'" + world.options.resume_from + "': " + error.what());
  }
  return restored_batteries;
}

void commit_resume(World& world, RunContext& ctx, const Checkpoint& ckpt,
                   mec::BatteryFleet batteries) {
  if (world.batteries_enabled()) world.batteries = std::move(batteries);
  if (!ckpt.model_state.empty()) nn::load_state(world.model, ckpt.model_state);
  ctx.global_weights = ckpt.global_weights;
  for (const RoundRecord& record : ckpt.records) ctx.history.add(record);
  ctx.cum_delay = ckpt.cum_delay_s;
  ctx.cum_energy = ckpt.cum_energy_j;
  ctx.cum_wasted_energy = ckpt.cum_wasted_energy_j;
  ctx.best_accuracy = ckpt.best_accuracy;
}

bool checkpoint_due(const TrainerOptions& options, std::uint64_t completed) {
  return options.checkpoint_every > 0 && completed > 0 &&
         completed % options.checkpoint_every == 0;
}

Checkpoint snapshot(const World& world, const RunContext& ctx,
                    std::uint64_t next_round) {
  Checkpoint ckpt;
  ckpt.seed = world.options.seed;
  ckpt.n_users = world.users.size();
  ckpt.next_round = next_round;
  ckpt.cum_delay_s = ctx.cum_delay;
  ckpt.cum_energy_j = ctx.cum_energy;
  ckpt.cum_wasted_energy_j = ctx.cum_wasted_energy;
  ckpt.best_accuracy = ctx.best_accuracy;
  ckpt.trace_seq = ctx.tracer != nullptr ? ctx.tracer->event_count() : 0;
  ckpt.global_weights = ctx.global_weights;
  if (ctx.has_state) ckpt.model_state = nn::extract_state(world.model);
  ckpt.batch_rng = ctx.batch_rng.state();
  ckpt.strategy_name = world.strategy.name();
  ckpt.strategy_state = util::to_bytes(world.strategy);
  ckpt.injector_state = util::to_bytes(ctx.injector);
  ckpt.fading_state = util::to_bytes(ctx.fading);
  ckpt.batteries_enabled = world.batteries_enabled();
  if (ckpt.batteries_enabled) ckpt.battery_state = util::to_bytes(world.batteries);
  ckpt.records = ctx.history.rounds();
  return ckpt;
}

void write_checkpoint(const World& world, const RunContext& ctx,
                      const Checkpoint& ckpt, std::size_t completed,
                      std::size_t round) {
  const std::string path =
      util::expand_path_token(world.options.checkpoint_path, "{round}", completed);
  ckpt.write_file(path);
  if (ctx.traces(obs::TraceLevel::kRound)) {
    ctx.tracer->emit(obs::TraceLevel::kRound, "checkpoint_write",
                     {{"round", round}, {"path", path}, {"records", ckpt.records.size()}});
  }
}

ClientDraw draw_client(RunContext& ctx, std::size_t user, std::uint64_t stream_key,
                       std::uint64_t fault_round) {
  ClientDraw draw;
  draw.fade = ctx.fading.multiplier(user);
  draw.rng = ctx.batch_rng.fork(stream_key);
  if (ctx.injector.active()) {
    draw.faults = ctx.injector.draw(fault_round, user, ctx.max_attempts);
  }
  return draw;
}

sched::FleetView selectable_fleet(const World& world, const RunContext& ctx,
                                  std::span<const std::uint8_t> busy,
                                  std::vector<std::uint8_t>& storage) {
  sched::FleetView fleet{world.users};
  const std::span<const std::uint8_t> churn = ctx.injector.availability();
  const std::span<const std::uint8_t> battery =
      world.batteries_enabled() ? world.batteries.alive_mask()
                                : std::span<const std::uint8_t>{};
  if (busy.empty() && (churn.empty() || battery.empty())) {
    fleet.alive = churn.empty() ? battery : churn;  // empty = the whole fleet
    return fleet;
  }
  storage.resize(world.users.size());
  for (std::size_t i = 0; i < storage.size(); ++i) {
    const bool ok = (busy.empty() || busy[i] == 0) && (churn.empty() || churn[i] != 0) &&
                    (battery.empty() || battery[i] != 0);
    storage[i] = ok ? 1 : 0;
  }
  fleet.alive = storage;
  return fleet;
}

void check_decision(const World& world, const sched::FleetView& fleet,
                    const sched::Decision& decision) {
  const auto fail = [&](const char* what) {
    throw std::logic_error(std::string(world.engine) + ": " + what);
  };
  if (decision.selected.size() != decision.frequencies_hz.size()) {
    fail("strategy returned a bad decision");
  }
  for (std::size_t k = 0; k < decision.selected.size(); ++k) {
    const std::size_t user = decision.selected[k];
    const double f = decision.frequencies_hz[k];
    if (!fleet.is_alive(user)) fail("strategy selected an unavailable device");
    const mec::Device& device = world.devices[user];
    if (f < device.f_min_hz - 1e-6 || f > device.f_max_hz + 1e-6) {
      fail("frequency outside DVFS range");
    }
  }
}

ClientOutcome train_client(World& world, RunContext& ctx, std::size_t round,
                           std::size_t user, double f, const ClientDraw& draw,
                           std::span<const float> start_state) {
  // Per-client span (kDebug): tagged with the pool-worker tid by the
  // profiler, so chrome://tracing shows the cohort's actual packing.
  obs::ScopedSpan client_span(ctx.profiler, "client", static_cast<std::int64_t>(round),
                              static_cast<std::int64_t>(user), obs::TraceLevel::kDebug);
  const mec::ClientFaults& faults = draw.faults;
  const mec::Device& device = world.devices[user];
  ClientOutcome outcome;
  if (faults.crashed) {
    // The local update died faults.crash_fraction of the way through: the
    // cycles burned still cost Eq.-(5) energy (pure waste), but nothing
    // ever reaches the uplink.
    outcome.compute_delay_s =
        mec::compute_delay_s(device, f) * faults.slowdown * faults.crash_fraction;
    outcome.energy_j = mec::compute_energy_j(device, f) * faults.crash_fraction;
    return outcome;
  }

  const std::size_t worker = util::ThreadPool::worker_index();
  nn::Sequential& model =
      worker == util::ThreadPool::npos ? world.model : *ctx.replicas[worker];
  if (ctx.has_state) nn::load_state(model, start_state);

  util::Rng client_rng = draw.rng;
  outcome.trained = true;
  outcome.update = local_update(model, ctx.global_weights, world.user_data[user],
                                world.options.client, client_rng);

  // Upload compression decides what the server integrates and scales the
  // simulated payload: C_model is a config knob decoupled from the trained
  // model's true size (DESIGN.md), so the wire size entering Eq. (7) is
  // C_model times the compression ratio achieved on the real weight vector.
  nn::CompressedModel compressed =
      nn::compress(outcome.update.weights, world.options.compression);
  const double compression_ratio =
      static_cast<double>(compressed.wire_bits) /
      (32.0 * static_cast<double>(outcome.update.weights.size()));
  const double wire_bits = world.options.model_size_bits * compression_ratio;
  outcome.update.weights = std::move(compressed.reconstructed);

  // Fading perturbs this round's actual channel gain; strategies only knew
  // the init-time value.
  mec::Device faded = device;
  faded.channel_gain_sq *= draw.fade;

  // A transient straggler stretches the Eq.-(4) delay (same cycles,
  // externally stalled) without changing the Eq.-(5) energy.  Every upload
  // attempt — failed or not — costs full Eq. (7)/(8), and each retry adds
  // a backoff gap before re-occupying the uplink.
  outcome.compute_delay_s = mec::compute_delay_s(device, f) * faults.slowdown;
  outcome.upload_duration_s = mec::upload_delay_s(faded, world.channel, wire_bits);
  outcome.attempts = faults.attempts();
  outcome.upload_ok = faults.upload_ok;
  outcome.occupancy_s =
      outcome.attempts <= 1
          ? outcome.upload_duration_s
          : static_cast<double>(outcome.attempts) * outcome.upload_duration_s +
                static_cast<double>(outcome.attempts - 1) *
                    world.options.retry_backoff_s;
  outcome.energy_j = mec::compute_energy_j(device, f) +
                     static_cast<double>(outcome.attempts) *
                         mec::upload_energy_j(faded, world.channel, wire_bits);
  if (ctx.has_state) outcome.state = nn::extract_state(model);
  return outcome;
}

void join_cohort(const World& world, std::vector<std::future<void>>& futures,
                 std::span<const std::size_t> users, std::size_t round) {
  // Failures are collected across the whole cohort and rethrown as one
  // aggregate error, so a multi-client breakage is diagnosable from a
  // single message.
  std::string failures;
  std::size_t failure_count = 0;
  for (std::size_t k = 0; k < futures.size(); ++k) {
    std::string what;
    try {
      futures[k].get();
      continue;
    } catch (const std::exception& error) {
      what = error.what();
    } catch (...) {
      what = "unknown exception";
    }
    ++failure_count;
    if (!failures.empty()) failures += "; ";
    failures += "client " + std::to_string(k) + " (user " +
                std::to_string(users[k]) + "): " + what;
  }
  if (failure_count > 0) {
    throw std::runtime_error(std::string(world.engine) + ": " +
                             std::to_string(failure_count) +
                             " client task(s) failed in round " +
                             std::to_string(round) + ": " + failures);
  }
}

void skip_round(const World& world, RunContext& ctx, std::size_t round,
                std::size_t available) {
  RoundRecord skipped;
  skipped.round = round;
  skipped.quorum_failed = true;
  skipped.cum_delay_s = ctx.cum_delay;
  skipped.cum_energy_j = ctx.cum_energy;
  skipped.alive_users = world.alive_users();
  skipped.available_users = available;
  ctx.history.add(std::move(skipped));
  if (ctx.registry != nullptr) ctx.registry->add("rounds.skipped");
  if (ctx.traces(obs::TraceLevel::kRound)) {
    ctx.tracer->emit(obs::TraceLevel::kRound, "round_end",
                     {{"round", round},
                      {"selected", std::size_t{0}},
                      {"survivors", std::size_t{0}},
                      {"quorum_failed", true},
                      {"cum_delay_s", ctx.cum_delay},
                      {"cum_energy_j", ctx.cum_energy}});
  }
}

bool close_round(World& world, RunContext& ctx, RoundRecord record,
                 std::size_t trained, bool last, bool over_deadline) {
  const TrainerOptions& options = world.options;
  if (record.round % options.eval_every == 0 || last || over_deadline) {
    obs::ScopedSpan eval_span(ctx.profiler, "evaluation",
                              static_cast<std::int64_t>(record.round));
    // Worker replicas evaluate with the server's persistent buffers.
    if (ctx.has_state && !ctx.replicas.empty()) {
      const std::vector<float> eval_state = nn::extract_state(world.model);
      for (const auto& replica : ctx.replicas) nn::load_state(*replica, eval_state);
    }
    const Evaluation eval = evaluate_parallel(ctx.eval_models, ctx.global_weights,
                                              ctx.eval_plan, ctx.pool);
    record.evaluated = true;
    record.test_loss = eval.loss;
    record.test_accuracy = eval.accuracy;
    // Tracked whether or not a registry observes it: the checkpoint stores
    // it, and observation must never change a checkpoint's bytes.
    ctx.best_accuracy = std::max(ctx.best_accuracy, record.test_accuracy);
  }
  ctx.cum_wasted_energy += record.wasted_energy_j;

  if (ctx.registry != nullptr) {
    obs::Registry& registry = *ctx.registry;
    registry.add("rounds.completed");
    registry.add("clients.selected", record.selected.size());
    registry.add("clients.trained", trained);
    registry.add("clients.crashed", record.crashed);
    registry.add("clients.dropped_late", record.dropped_late);
    registry.add("clients.aggregated", record.survivors);
    registry.add("uploads.failed", record.upload_failures);
    registry.add("uploads.retries", record.retries);
    if (record.quorum_failed) registry.add("rounds.quorum_failed");
    const std::uint64_t scratch_now = tensor::scratch_realloc_count();
    registry.add("kernel.scratch_reallocs", scratch_now - ctx.scratch_reported);
    ctx.scratch_reported = scratch_now;
    registry.set_gauge("delay.cum_s", ctx.cum_delay);
    registry.set_gauge("energy.cum_j", ctx.cum_energy);
    registry.set_gauge("energy.wasted_cum_j", ctx.cum_wasted_energy);
    if (record.evaluated) {
      registry.set_gauge("accuracy.last", record.test_accuracy);
      registry.set_gauge("accuracy.best", ctx.best_accuracy);
    }
  }
  if (ctx.traces(obs::TraceLevel::kRound)) {
    std::vector<obs::Field> fields = {
        {"round", record.round},
        {"selected", record.selected.size()},
        {"survivors", record.survivors},
        {"crashed", record.crashed},
        {"upload_failures", record.upload_failures},
        {"dropped_late", record.dropped_late},
        {"retries", record.retries},
        {"quorum_failed", record.quorum_failed},
        {"round_delay_s", record.round_delay_s},
        {"round_energy_j", record.round_energy_j},
        {"wasted_energy_j", record.wasted_energy_j},
        {"cum_delay_s", record.cum_delay_s},
        {"cum_energy_j", record.cum_energy_j},
        {"train_loss", record.train_loss}};
    if (record.evaluated) {
      fields.emplace_back("test_loss", record.test_loss);
      fields.emplace_back("test_accuracy", record.test_accuracy);
    }
    ctx.tracer->emit(obs::TraceLevel::kRound, "round_end", fields);
  }
  const bool target_reached = record.evaluated && options.target_accuracy >= 0.0 &&
                              record.test_accuracy >= options.target_accuracy;
  ctx.history.add(std::move(record));
  return target_reached;
}

bool should_stop(const World& world, const RunContext& ctx, std::size_t round,
                 bool over_deadline, bool target_reached) {
  if (over_deadline) {
    util::log_info(std::string(world.engine) + ": deadline reached after round " +
                   std::to_string(round));
    return true;
  }
  if (target_reached) return true;
  // Algorithm 1's convergence exit: the training-loss spread over the last
  // `window` rounds has flattened out.
  const std::size_t window = world.options.convergence_window;
  const std::vector<RoundRecord>& rounds = ctx.history.rounds();
  if (window < 2 || rounds.size() < window) return false;
  double lo = rounds.back().train_loss;
  double hi = lo;
  for (std::size_t k = 2; k <= window; ++k) {
    const double loss = rounds[rounds.size() - k].train_loss;
    lo = std::min(lo, loss);
    hi = std::max(hi, loss);
  }
  if (hi - lo >= world.options.convergence_epsilon) return false;
  util::log_info(std::string(world.engine) + ": converged after round " +
                 std::to_string(round));
  return true;
}

void emit_run_start(const World& world, const RunContext& ctx,
                    std::span<const obs::Field> extra) {
  if (!ctx.traces(obs::TraceLevel::kRound)) return;
  const std::string strategy = world.strategy.name();
  std::vector<obs::Field> fields = {
      {"schema", std::size_t{1}},
      {"strategy", strategy},
      {"users", world.users.size()},
      {"max_rounds", world.options.max_rounds},
      {"threads", std::max<std::size_t>(ctx.pool.worker_count(), 1)},
      {"seed", world.options.seed},
      {"faults_enabled", ctx.injector.active()}};
  fields.insert(fields.end(), extra.begin(), extra.end());
  ctx.tracer->emit(obs::TraceLevel::kRound, "run_start", fields);
}

TrainingHistory finish_run(World& world, RunContext& ctx) {
  if (ctx.traces(obs::TraceLevel::kRound)) {
    ctx.tracer->emit(obs::TraceLevel::kRound, "run_end",
                     {{"rounds", ctx.history.size()},
                      {"cum_delay_s", ctx.cum_delay},
                      {"cum_energy_j", ctx.cum_energy},
                      {"wasted_energy_cum_j", ctx.cum_wasted_energy}});
    ctx.tracer->flush();
  }
  nn::load_parameters(world.model, ctx.global_weights);
  return std::move(ctx.history);
}

}  // namespace stages
}  // namespace helcfl::fl

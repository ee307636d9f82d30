#include "fl/async_trainer.h"

#include <algorithm>
#include <cmath>
#include <exception>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

#include "fl/async_state.h"
#include "fl/checkpoint.h"
#include "fl/server.h"
#include "nn/serialize.h"
#include "obs/profiler.h"
#include "obs/registry.h"
#include "obs/trace.h"

namespace helcfl::fl {

void AsyncOptions::validate() const {
  if (!std::isfinite(staleness_beta) || staleness_beta < 0.0) {
    throw std::invalid_argument(
        "AsyncOptions: staleness_beta = " + std::to_string(staleness_beta) +
        " must be finite and >= 0 (0 disables staleness discounting)");
  }
}

AsyncOptions::Mode parse_async_mode(const std::string& text) {
  if (text == "sync") return AsyncOptions::Mode::kSync;
  if (text == "async") return AsyncOptions::Mode::kAsync;
  throw std::invalid_argument("unknown engine mode '" + text +
                              "' (expected \"sync\" or \"async\")");
}

std::string async_mode_name(AsyncOptions::Mode mode) {
  return mode == AsyncOptions::Mode::kSync ? "sync" : "async";
}

AsyncTrainer::AsyncTrainer(nn::Sequential& model, const data::Dataset& train,
                           const data::Dataset& test,
                           const data::Partition& partition,
                           std::span<const mec::Device> devices,
                           const mec::Channel& channel,
                           sched::SelectionStrategy& strategy,
                           TrainerOptions options, AsyncOptions async_options)
    : world_("AsyncTrainer", model, train, test, partition, devices, channel,
             strategy, std::move(options)),
      async_(async_options) {
  async_.validate();
  if (async_.mode == AsyncOptions::Mode::kAsync && async_.buffer_k > 0 &&
      async_.buffer_k < world_.options.min_clients) {
    throw std::invalid_argument(
        "AsyncTrainer: buffer_k = " + std::to_string(async_.buffer_k) +
        " is below min_clients = " + std::to_string(world_.options.min_clients) +
        "; every aggregation would fail its quorum and the model would never "
        "move");
  }
}

TrainingHistory AsyncTrainer::run() {
  return async_.mode == AsyncOptions::Mode::kSync ? stages::run_barrier(world_)
                                                   : run_async_();
}

// The event-driven FedBuff engine (docs/ASYNC.md).  A single deterministic
// clock advances through the EventQueue; devices are (re-)dispatched the
// moment they are free, the single TDMA uplink is a rolling cursor, and the
// server aggregates whenever `buffer_k` updates have arrived — each
// discounted by its staleness — without waiting for anyone still in flight.
// One server step (aggregation) plays the role the barrier round plays in
// the sync engine: it owns a RoundRecord, the observe/report_completion
// calls, the eval cadence, and the stop checks.
TrainingHistory AsyncTrainer::run_async_() {
  stages::World& world = world_;
  const TrainerOptions& options = world.options;
  stages::RunContext ctx(world);
  const std::size_t n_users = world.users.size();

  AsyncState s;
  s.effective_k = async_.buffer_k;
  s.busy.assign(n_users, 0);
  bool stopping = false;

  // Anti-livelock: a hard cap on total dispatches, far above anything a
  // normal run uses (the sync engine dispatches at most max_rounds x fleet).
  const std::uint64_t dispatch_cap =
      static_cast<std::uint64_t>(options.max_rounds + 1) * n_users;

  // --- checkpoint resume (parse-then-commit, as in the barrier engine) ---
  bool resumed = false;
  if (!options.resume_from.empty()) {
    const Checkpoint ckpt =
        stages::read_resume_checkpoint(world, ctx, /*async_engine=*/true);
    AsyncState restored;
    try {
      restored = AsyncState::load(ckpt.async_state, n_users);
    } catch (const std::exception& error) {
      throw CheckpointError("'" + options.resume_from + "': " + error.what());
    }
    mec::BatteryFleet batteries = stages::parse_resume_cursors(world, ctx, ckpt);
    // Commit — nothing below throws.  The frame's clock is the cumulative
    // delay the shared stages read.
    stages::commit_resume(world, ctx, ckpt, std::move(batteries));
    s = std::move(restored);
    ctx.cum_delay = s.now;
    resumed = true;
  }

  const obs::Field run_start_extra[] = {{"mode", std::string_view("async")},
                                        {"buffer_k", async_.buffer_k},
                                        {"staleness_beta", async_.staleness_beta},
                                        {"staleness_bound", async_.staleness_bound}};
  stages::emit_run_start(world, ctx, run_start_extra);
  if (resumed && ctx.traces(obs::TraceLevel::kRound)) {
    ctx.tracer->emit(obs::TraceLevel::kRound, "checkpoint_resume",
                     {{"round", s.step},
                      {"records", ctx.history.size()},
                      {"cum_delay_s", s.now},
                      {"cum_energy_j", ctx.cum_energy},
                      {"resolutions", s.resolutions},
                      {"in_flight", s.in_flight.size()},
                      {"buffered", s.buffer.size()}});
  }

  // Cadenced snapshot writer.  The async cadence is counted in event
  // *resolutions* (not steps): with in-flight work outnumbering steps,
  // resolution boundaries are where a snapshot naturally captures a
  // non-empty event queue, in-flight clients, and a partial buffer.  The
  // {round} path token expands to the resolution count.
  const auto maybe_write_checkpoint = [&]() {
    if (!stages::checkpoint_due(options, s.resolutions)) return;
    obs::ScopedSpan span(ctx.profiler, "checkpoint",
                         static_cast<std::int64_t>(s.resolutions));
    Checkpoint ckpt = stages::snapshot(world, ctx, s.step);
    ckpt.async_enabled = true;
    ckpt.async_state = s.save();
    stages::write_checkpoint(world, ctx, ckpt, s.resolutions, s.resolutions);
  };

  // Dispatches every idle selectable device the strategy picks, trains the
  // new cohort (in parallel), and schedules each client's next event.
  // Called at every churn boundary and after every resolution.
  const auto try_dispatch = [&]() {
    if (s.next_dispatch_id >= dispatch_cap) return;
    std::vector<std::uint8_t> selectable;
    const sched::FleetView fleet =
        stages::selectable_fleet(world, ctx, s.busy, selectable);
    if (fleet.alive_count() == 0) return;

    sched::Decision decision;
    {
      obs::ScopedSpan selection_span(ctx.profiler, "selection",
                                     static_cast<std::int64_t>(s.step));
      decision = world.strategy.decide(fleet, s.step);
    }
    if (decision.selected.empty()) return;
    stages::check_decision(world, fleet, decision);

    std::size_t cohort = decision.selected.size();
    if (s.next_dispatch_id + cohort > dispatch_cap) {
      cohort = static_cast<std::size_t>(dispatch_cap - s.next_dispatch_id);
    }
    // The first cohort fixes the semi-async buffer size (buffer_k == 0).
    if (s.effective_k == 0) s.effective_k = std::max<std::size_t>(cohort, 1);

    // Streams are keyed on the dispatch id — unique and deterministic in
    // dispatch order — so mini-batch draws and fault outcomes are identical
    // for any thread count.
    std::vector<stages::ClientDraw> draws;
    draws.reserve(cohort);
    for (std::size_t k = 0; k < cohort; ++k) {
      const std::size_t user = decision.selected[k];
      const std::uint64_t id = s.next_dispatch_id + k;
      draws.push_back(stages::draw_client(ctx, user, id, id));
      s.busy[user] = 1;
      s.acc.dispatched_users.push_back(user);
      s.acc.dispatched_freqs.push_back(decision.frequencies_hz[k]);
    }

    const std::vector<float> dispatch_state =
        ctx.has_state ? nn::extract_state(world.model) : std::vector<float>{};
    std::vector<AsyncDispatch> outcomes(cohort);
    {
      obs::ScopedSpan training_span(ctx.profiler, "local_training",
                                    static_cast<std::int64_t>(s.step));
      stages::run_cohort(world, ctx, cohort, decision.selected, s.step, [&](std::size_t k) {
        stages::ClientOutcome& out = outcomes[k].out;
        out = stages::train_client(world, ctx, s.step, decision.selected[k],
                                   decision.frequencies_hz[k], draws[k], dispatch_state);
        // FedBuff aggregates *updates*: the arrival carries the client's
        // delta from the model it was dispatched with, so a stale update
        // nudges the current model instead of dragging it back toward its
        // old base.
        std::vector<float>& weights = out.update.weights;
        for (std::size_t i = 0; i < weights.size(); ++i) {
          weights[i] -= ctx.global_weights[i];
        }
      });
    }

    // Commit in dispatch order: schedule each client's terminal event.
    for (std::size_t k = 0; k < cohort; ++k) {
      AsyncDispatch& d = outcomes[k];
      const mec::ClientFaults& faults = draws[k].faults;
      d.id = s.next_dispatch_id++;
      d.user = decision.selected[k];
      d.version = s.model_version;
      d.frequency_hz = decision.frequencies_hz[k];
      d.dispatch_time_s = s.now;
      d.slowdown = faults.slowdown;
      d.crashed = faults.crashed;
      if (faults.crashed) {
        d.crash_fraction = faults.crash_fraction;
      } else {
        d.failed_attempts = faults.failed_attempts;
      }
      const EventKind kind =
          d.crashed ? EventKind::kFault : EventKind::kComputeFinish;
      s.queue.push(s.now + d.out.compute_delay_s, kind, d.user, d.id);
      if (ctx.traces(obs::TraceLevel::kDecision)) {
        ctx.tracer->emit(obs::TraceLevel::kDecision, "async.dispatch",
                         {{"step", s.step},
                          {"user", d.user},
                          {"dispatch_id", d.id},
                          {"version", d.version},
                          {"time_s", s.now},
                          {"compute_delay_s", d.out.compute_delay_s}});
      }
      s.in_flight.push_back(std::move(d));  // ids ascend, so order holds
    }
  };

  // One server step ends here: FedBuff aggregation over the buffer (or a
  // flush of whatever is left), completion feedback, the step's
  // RoundRecord, eval cadence, and the stop checks.
  const auto aggregate = [&](bool flush) {
    obs::ScopedSpan aggregation_span(ctx.profiler, "aggregation",
                                     static_cast<std::int64_t>(s.step));
    StepAccum& acc = s.acc;
    const std::size_t arrivals = s.buffer.size();
    const bool quorum_met = arrivals >= options.min_clients;
    double staleness_sum = 0.0;
    for (const AsyncDispatch& a : s.buffer) {
      staleness_sum += static_cast<double>(s.model_version - a.version);
    }
    const double staleness_mean =
        arrivals > 0 ? staleness_sum / static_cast<double>(arrivals) : 0.0;

    if (!quorum_met && ctx.traces(obs::TraceLevel::kRound)) {
      ctx.tracer->emit(obs::TraceLevel::kRound, "quorum",
                       {{"round", s.step},
                        {"survivors", arrivals},
                        {"min_clients", options.min_clients}});
    }

    double train_loss_sum = 0.0;
    if (quorum_met) {
      // Staleness-discounted FedBuff step: each buffered arrival holds the
      // client's *delta* from its dispatch base, weighted by
      // num_samples / (1+s)^β, and the weighted mean delta is applied to the
      // current model.  With β = 0 every discount is exactly 1.0 — the
      // plain weighted mean of the barrier engine.
      std::vector<WeightedModel> uploads;
      uploads.reserve(arrivals);
      for (const AsyncDispatch& a : s.buffer) {
        const double staleness = static_cast<double>(s.model_version - a.version);
        const double discount =
            async_.staleness_beta == 0.0
                ? 1.0
                : 1.0 / std::pow(1.0 + staleness, async_.staleness_beta);
        uploads.push_back({a.out.update.weights, a.out.update.num_samples, discount});
      }
      const std::vector<float> mean_delta = fedavg(uploads);
      for (std::size_t i = 0; i < ctx.global_weights.size(); ++i) {
        ctx.global_weights[i] += mean_delta[i];
      }
      ++s.model_version;

      sched::Decision agg_decision;
      std::vector<double> losses;
      agg_decision.selected.reserve(arrivals);
      agg_decision.frequencies_hz.reserve(arrivals);
      losses.reserve(arrivals);
      for (const AsyncDispatch& a : s.buffer) {
        agg_decision.selected.push_back(a.user);
        agg_decision.frequencies_hz.push_back(a.frequency_hz);
        losses.push_back(a.out.update.train_loss);
        train_loss_sum += a.out.update.train_loss;
      }
      world.strategy.observe(s.step, agg_decision, losses);
      if (ctx.has_state && !s.buffer.empty()) {
        nn::load_state(world.model, s.buffer.back().out.state);
      }
    } else {
      // Quorum failed: the model holds still and every buffered update's
      // energy is wasted on top of what already failed this step.
      for (const AsyncDispatch& a : s.buffer) {
        acc.step_wasted += a.out.energy_j;
        train_loss_sum += a.out.update.train_loss;
      }
    }

    // Completion feedback over everything resolved during this step, in
    // resolution order.  Tentative arrival marks (2) settle with the
    // step's quorum verdict.
    if (!acc.resolved_users.empty()) {
      sched::Decision resolved_decision;
      resolved_decision.selected = acc.resolved_users;
      resolved_decision.frequencies_hz = acc.resolved_freqs;
      std::vector<std::uint8_t> completed = acc.resolved_completed;
      for (std::uint8_t& c : completed) {
        c = (c == 2 && quorum_met) ? 1 : 0;
      }
      world.strategy.report_completion(s.step, resolved_decision, completed);
    }
    aggregation_span.finish();

    ctx.cum_energy += acc.step_energy;
    std::vector<std::uint8_t> present;
    RoundRecord record;
    record.round = s.step;
    record.selected = acc.dispatched_users;
    record.round_delay_s = s.now - s.step_start;
    record.round_energy_j = acc.step_energy;
    record.cum_delay_s = s.now;
    record.cum_energy_j = ctx.cum_energy;
    record.train_loss =
        arrivals > 0 ? train_loss_sum / static_cast<double>(arrivals) : 0.0;
    record.alive_users = world.alive_users();
    record.available_users =
        stages::selectable_fleet(world, ctx, {}, present).alive_count();
    if (quorum_met) {
      record.aggregated.reserve(arrivals);
      for (const AsyncDispatch& a : s.buffer) record.aggregated.push_back(a.user);
    }
    record.survivors = record.aggregated.size();
    record.crashed = acc.crashed;
    record.upload_failures = acc.upload_failures;
    // In async mode dropped_late counts bounded-staleness drops — the async
    // analogue of arriving after the barrier's cutoff.
    record.dropped_late = acc.dropped_stale;
    record.retries = acc.retries;
    record.quorum_failed = !quorum_met;
    record.wasted_energy_j = acc.step_wasted;

    const bool last_step = s.step + 1 >= options.max_rounds;
    const bool over_deadline = s.now > options.deadline_s;
    const bool target_reached = stages::close_round(
        world, ctx, std::move(record), arrivals, last_step, over_deadline);
    if (ctx.registry != nullptr) {
      obs::Registry& registry = *ctx.registry;
      registry.add("async.aggregations");
      if (flush) registry.add("async.flushes");
      if (acc.dropped_stale > 0) registry.add("async.dropped_stale", acc.dropped_stale);
      registry.set_gauge("async.staleness_mean", staleness_mean);
      registry.set_gauge("async.model_version", static_cast<double>(s.model_version));
      registry.set_gauge("async.in_flight", static_cast<double>(s.in_flight.size()));
    }
    if (ctx.traces(obs::TraceLevel::kRound)) {
      ctx.tracer->emit(obs::TraceLevel::kRound, "async.step",
                       {{"round", s.step},
                        {"arrivals", arrivals},
                        {"buffer_k", s.effective_k},
                        {"staleness_mean", staleness_mean},
                        {"model_version", s.model_version},
                        {"in_flight", s.in_flight.size()},
                        {"flush", flush}});
    }
    stopping = stages::should_stop(world, ctx, s.step, over_deadline, target_reached) ||
               last_step;

    s.buffer.clear();
    acc = StepAccum{};
    ++s.step;
    s.step_start = s.now;
    if (!stopping) {
      s.queue.push(s.now, EventKind::kChurn, 0, /*tag=*/s.step);
    }
  };

  // The in-flight dispatch an event names.
  const auto find_flight = [&](std::uint64_t id) {
    const auto it = s.find_flight(id);
    if (it == s.in_flight.end()) {
      throw std::logic_error(
          "AsyncTrainer: event references unknown dispatch id " +
          std::to_string(id));
    }
    return it;
  };
  // Pulls one resolved dispatch out of the in-flight list.
  const auto take_flight = [&](std::uint64_t id) {
    const auto it = find_flight(id);
    AsyncDispatch d = std::move(*it);
    s.in_flight.erase(it);
    return d;
  };

  // Bootstrap: the first churn boundary enters the queue at t = 0.  A
  // resumed run's queue already carries its pending events.
  if (!resumed && options.max_rounds > 0) {
    s.queue.push(0.0, EventKind::kChurn, 0, /*tag=*/s.step);
  }
  if (options.max_rounds == 0) stopping = true;

  while (!stopping) {
    if (s.queue.empty()) {
      // Nothing left in flight.  Flush a partial buffer (or settle pending
      // completion feedback) as one final server step; otherwise the run is
      // over — fleet depleted, strategy empty, or dispatch cap reached.
      if (!s.buffer.empty() || !s.acc.resolved_users.empty()) {
        aggregate(/*flush=*/true);
        continue;
      }
      break;
    }
    const Event event = s.queue.pop();
    ctx.cum_delay = s.now = event.time_s;  // monotone: every push is at >= now
    StepAccum& acc = s.acc;

    switch (event.kind) {
      case EventKind::kChurn: {
        // A server-step boundary: availability churn and channel fading
        // advance once per step, exactly as the barrier engine advances
        // them once per round.
        ctx.injector.begin_round();
        ctx.fading.step();
        try_dispatch();
        if (s.in_flight.empty() && s.buffer.empty() && s.queue.empty() &&
            acc.resolved_users.empty() && ctx.injector.active() &&
            ctx.injector.away_count() > 0 && s.next_dispatch_id < dispatch_cap &&
            s.step < options.max_rounds) {
          // Churn emptied the fleet before anything was dispatched: record
          // a skipped step (the barrier engine's churn-skip path) and try
          // the next churn boundary.
          stages::skip_round(world, ctx, s.step, 0);
          acc = StepAccum{};
          ++s.step;
          s.step_start = s.now;
          if (s.step < options.max_rounds) {
            s.queue.push(s.now, EventKind::kChurn, 0, /*tag=*/s.step);
          }
        }
        break;
      }

      case EventKind::kComputeFinish: {
        // TDMA grant: the single uplink is a rolling cursor — this client
        // transmits as soon as both it and the channel are ready, holding
        // the channel for its full retry-inclusive occupancy.
        AsyncDispatch& d = *find_flight(event.tag);
        d.compute_end_s = event.time_s;
        d.upload_start_s = std::max(event.time_s, s.uplink_free);
        s.uplink_free = d.upload_start_s + d.out.occupancy_s;
        s.queue.push(s.uplink_free, EventKind::kUploadFinish, d.user, d.id);
        break;
      }

      case EventKind::kUploadFinish: {
        AsyncDispatch d = take_flight(event.tag);
        s.busy[d.user] = 0;
        acc.step_energy += d.out.energy_j;
        if (world.batteries_enabled()) world.batteries.drain(d.user, d.out.energy_j);
        acc.retries += d.out.attempts > 0 ? d.out.attempts - 1 : 0;
        const std::size_t staleness = s.model_version - d.version;

        bool accepted = false;
        if (!d.out.upload_ok) {
          ++acc.upload_failures;
          acc.step_wasted += d.out.energy_j;
        } else if (async_.staleness_bound > 0 &&
                   staleness > async_.staleness_bound) {
          ++acc.dropped_stale;
          acc.step_wasted += d.out.energy_j;
        } else {
          accepted = true;
        }

        if (ctx.traces(obs::TraceLevel::kDecision)) {
          ctx.tracer->emit(obs::TraceLevel::kDecision, "tdma",
                           {{"round", s.step},
                            {"user", d.user},
                            {"attempts", d.out.attempts},
                            {"compute_end_s", d.compute_end_s},
                            {"upload_start_s", d.upload_start_s},
                            {"upload_end_s", event.time_s},
                            {"slack_s", d.upload_start_s - d.compute_end_s},
                            {"accepted", accepted},
                            {"dropped_late", false}});
        }
        if (ctx.traces(obs::TraceLevel::kRound)) {
          if (d.slowdown > 1.0) {
            ctx.tracer->emit(obs::TraceLevel::kRound, "fault",
                             {{"round", s.step},
                              {"user", d.user},
                              {"kind", "straggler"},
                              {"slowdown", d.slowdown}});
          }
          if (d.failed_attempts > 0) {
            ctx.tracer->emit(obs::TraceLevel::kRound, "fault",
                             {{"round", s.step},
                              {"user", d.user},
                              {"kind", "upload_failure"},
                              {"failed_attempts", d.failed_attempts},
                              {"upload_ok", d.out.upload_ok}});
          }
          if (!accepted && d.out.upload_ok) {
            ctx.tracer->emit(obs::TraceLevel::kRound, "fault",
                             {{"round", s.step},
                              {"user", d.user},
                              {"kind", "dropped_stale"},
                              {"staleness", staleness},
                              {"staleness_bound", async_.staleness_bound}});
          }
        }

        acc.resolved_users.push_back(d.user);
        acc.resolved_freqs.push_back(d.frequency_hz);
        acc.resolved_completed.push_back(accepted ? 2 : 0);
        if (accepted) {
          if (ctx.traces(obs::TraceLevel::kDecision)) {
            ctx.tracer->emit(obs::TraceLevel::kDecision, "async.arrival",
                             {{"step", s.step},
                              {"user", d.user},
                              {"dispatch_id", d.id},
                              {"staleness", staleness},
                              {"buffered", s.buffer.size() + 1},
                              {"buffer_k", s.effective_k}});
          }
          s.buffer.push_back(std::move(d));
        }

        ++s.resolutions;
        if (accepted && s.effective_k > 0 && s.buffer.size() >= s.effective_k) {
          // Step boundary: aggregate now; the kChurn event it schedules
          // owns the re-dispatch, so churn advances before the next cohort.
          aggregate(/*flush=*/false);
        } else {
          try_dispatch();
        }
        maybe_write_checkpoint();
        break;
      }

      case EventKind::kFault: {
        // Crash burn-out: the client dies crash_fraction of the way
        // through its local update — the cycles burned still cost energy,
        // but nothing ever reaches the uplink.
        AsyncDispatch d = take_flight(event.tag);
        s.busy[d.user] = 0;
        acc.step_energy += d.out.energy_j;
        acc.step_wasted += d.out.energy_j;
        if (world.batteries_enabled()) world.batteries.drain(d.user, d.out.energy_j);
        ++acc.crashed;
        if (ctx.traces(obs::TraceLevel::kRound)) {
          ctx.tracer->emit(obs::TraceLevel::kRound, "fault",
                           {{"round", s.step},
                            {"user", d.user},
                            {"kind", "crash"},
                            {"crash_fraction", d.crash_fraction}});
        }
        acc.resolved_users.push_back(d.user);
        acc.resolved_freqs.push_back(d.frequency_hz);
        acc.resolved_completed.push_back(0);
        ++s.resolutions;
        try_dispatch();
        maybe_write_checkpoint();
        break;
      }
    }
  }
  return stages::finish_run(world, ctx);
}

}  // namespace helcfl::fl

#include "fl/trainer.h"

#include <algorithm>
#include <string>
#include <utility>

#include "fl/server.h"
#include "mec/tdma.h"
#include "nn/serialize.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "util/log.h"

namespace helcfl::fl {

FederatedTrainer::FederatedTrainer(nn::Sequential& model, const data::Dataset& train,
                                   const data::Dataset& test,
                                   const data::Partition& partition,
                                   std::span<const mec::Device> devices,
                                   const mec::Channel& channel,
                                   sched::SelectionStrategy& strategy,
                                   TrainerOptions options)
    : world_("FederatedTrainer", model, train, test, partition, devices, channel,
             strategy, std::move(options)) {}

namespace stages {
namespace {

/// Where one client's update landed once the TDMA stage has run.
struct Landing {
  bool accepted = false;      ///< update entered FedAvg
  bool dropped_late = false;  ///< arrived after the straggler cutoff
};

/// Line 8 (Fig. 1): serializes the uploads of the clients that actually
/// transmit (crashed clients never reach the uplink) and closes the round
/// at the straggler cutoff or when the last upload lands, whichever is
/// earlier.  Marks every landing and returns the round delay.
double run_tdma(const World& world, const RunContext& ctx, std::size_t round,
                const sched::Decision& decision,
                const std::vector<ClientOutcome>& outcomes,
                std::vector<Landing>& landings) {
  std::vector<std::size_t> transmitting;  // cohort indices, selection order
  std::vector<double> tx_compute_delays;
  std::vector<double> tx_occupancies;
  for (std::size_t k = 0; k < outcomes.size(); ++k) {
    if (!outcomes[k].trained) continue;
    transmitting.push_back(k);
    tx_compute_delays.push_back(outcomes[k].compute_delay_s);
    tx_occupancies.push_back(outcomes[k].occupancy_s);
  }
  const mec::TdmaSchedule schedule =
      mec::schedule_uploads(tx_compute_delays, tx_occupancies);

  const double cutoff = world.options.straggler_cutoff_s;
  const bool trace_tdma = ctx.traces(obs::TraceLevel::kDecision);
  for (const mec::UploadSlot& slot : schedule.slots) {
    const std::size_t k = transmitting[slot.index];
    Landing& landing = landings[k];
    if (outcomes[k].upload_ok) {
      landing.accepted = slot.upload_end <= cutoff;
      landing.dropped_late = !landing.accepted;
    }
    // TDMA telemetry in grant order — the Fig.-1 timeline.
    if (trace_tdma) {
      ctx.tracer->emit(obs::TraceLevel::kDecision, "tdma",
                       {{"round", round},
                        {"user", decision.selected[k]},
                        {"attempts", outcomes[k].attempts},
                        {"compute_end_s", slot.compute_end},
                        {"upload_start_s", slot.upload_start},
                        {"upload_end_s", slot.upload_end},
                        {"slack_s", slot.slack_s},
                        {"accepted", landing.accepted},
                        {"dropped_late", landing.dropped_late}});
    }
  }
  return std::min(schedule.round_delay_s, cutoff);
}

/// Fault telemetry, selection order: what the injector (and the cutoff)
/// actually did to this cohort.  Reads only the pre-drawn fault records and
/// the landings — emitting changes no draw.
void trace_faults(const World& world, const RunContext& ctx, std::size_t round,
                  const sched::Decision& decision, const std::vector<ClientDraw>& draws,
                  const std::vector<Landing>& landings) {
  if (!ctx.traces(obs::TraceLevel::kRound)) return;
  obs::Tracer& tracer = *ctx.tracer;
  for (std::size_t k = 0; k < draws.size(); ++k) {
    const std::size_t user = decision.selected[k];
    const mec::ClientFaults& faults = draws[k].faults;
    if (faults.crashed) {
      tracer.emit(obs::TraceLevel::kRound, "fault",
                  {{"round", round},
                   {"user", user},
                   {"kind", "crash"},
                   {"crash_fraction", faults.crash_fraction}});
    }
    if (faults.slowdown > 1.0) {
      tracer.emit(obs::TraceLevel::kRound, "fault",
                  {{"round", round},
                   {"user", user},
                   {"kind", "straggler"},
                   {"slowdown", faults.slowdown}});
    }
    if (faults.failed_attempts > 0) {
      tracer.emit(obs::TraceLevel::kRound, "fault",
                  {{"round", round},
                   {"user", user},
                   {"kind", "upload_failure"},
                   {"failed_attempts", faults.failed_attempts},
                   {"upload_ok", faults.upload_ok}});
    }
    if (landings[k].dropped_late) {
      tracer.emit(obs::TraceLevel::kRound, "fault",
                  {{"round", round},
                   {"user", user},
                   {"kind", "dropped_late"},
                   {"cutoff_s", world.options.straggler_cutoff_s}});
    }
  }
}

/// Line 10: ordered reduction (selection order) of the cohort, FedAvg over
/// the accepted updates (Eq. 18) under the quorum rule, and the strategy
/// feedback.  Returns the round's record with its cohort tallies.
RoundRecord aggregate(World& world, RunContext& ctx, std::size_t round,
                      const sched::Decision& decision,
                      const std::vector<ClientOutcome>& outcomes,
                      const std::vector<Landing>& landings) {
  obs::ScopedSpan aggregation_span(ctx.profiler, "aggregation",
                                   static_cast<std::int64_t>(round));
  const std::size_t cohort = outcomes.size();
  RoundRecord record;
  record.round = round;
  record.selected = decision.selected;
  std::vector<std::size_t> survivors;  // cohort indices, selection order
  double train_loss_sum = 0.0;
  for (std::size_t k = 0; k < cohort; ++k) {
    const ClientOutcome& outcome = outcomes[k];
    if (outcome.trained) {
      train_loss_sum += outcome.update.train_loss;
      record.retries += outcome.attempts > 0 ? outcome.attempts - 1 : 0;
      if (!outcome.upload_ok) ++record.upload_failures;
      if (landings[k].dropped_late) ++record.dropped_late;
      if (landings[k].accepted) survivors.push_back(k);
    } else {
      ++record.crashed;
    }
    record.round_energy_j += outcome.energy_j;
    if (!landings[k].accepted) record.wasted_energy_j += outcome.energy_j;
  }
  const std::size_t trained = cohort - record.crashed;
  record.train_loss =
      trained > 0 ? train_loss_sum / static_cast<double>(trained) : 0.0;

  // Quorum rule: with fewer than min_clients surviving updates the FLCC
  // keeps the previous global model — a failed round costs its delay and
  // energy but moves no weights and feeds no strategy statistics.
  const bool quorum_met = survivors.size() >= world.options.min_clients;
  record.quorum_failed = !quorum_met;
  if (!quorum_met && ctx.traces(obs::TraceLevel::kRound)) {
    ctx.tracer->emit(obs::TraceLevel::kRound, "quorum",
                     {{"round", round},
                      {"survivors", survivors.size()},
                      {"min_clients", world.options.min_clients}});
  }
  // Completion feedback: selection-time strategy state (α_q counters,
  // FedCS's deadline set, Oort's reliability view) must only count clients
  // whose data actually entered the model.
  std::vector<std::uint8_t> completed(cohort, 0);
  if (quorum_met) {
    // The denominators of Eq. (18) are the survivors' sample counts only.
    std::vector<WeightedModel> uploads;
    std::vector<double> client_losses;
    sched::Decision survivor_decision;
    uploads.reserve(survivors.size());
    for (const std::size_t k : survivors) {
      uploads.push_back({outcomes[k].update.weights, outcomes[k].update.num_samples});
      client_losses.push_back(outcomes[k].update.train_loss);
      survivor_decision.selected.push_back(decision.selected[k]);
      survivor_decision.frequencies_hz.push_back(decision.frequencies_hz[k]);
      completed[k] = 1;
    }
    ctx.global_weights = fedavg(uploads);
    world.strategy.observe(round, survivor_decision, client_losses);
    if (ctx.has_state) nn::load_state(world.model, outcomes[survivors.back()].state);
    record.aggregated = std::move(survivor_decision.selected);
  } else {
    record.wasted_energy_j = record.round_energy_j;  // nothing entered the model
  }
  world.strategy.report_completion(round, decision, completed);
  record.survivors = record.aggregated.size();
  return record;
}

}  // namespace

TrainingHistory run_barrier(World& world) {
  RunContext ctx(world);
  const TrainerOptions& options = world.options;

  // Checkpoint resume (DESIGN.md §11).  Parse-then-commit: every check and
  // every throwing parse happens before the first durable mutation, so a
  // rejected checkpoint leaves the engine exactly as it was and a later
  // run() behaves as if the resume was never attempted.
  std::size_t start_round = 0;
  if (!options.resume_from.empty()) {
    const Checkpoint ckpt = read_resume_checkpoint(world, ctx, /*async_engine=*/false);
    mec::BatteryFleet batteries = parse_resume_cursors(world, ctx, ckpt);
    commit_resume(world, ctx, ckpt, std::move(batteries));
    start_round = static_cast<std::size_t>(ckpt.next_round);
  }

  emit_run_start(world, ctx);
  if (start_round > 0 && ctx.traces(obs::TraceLevel::kRound)) {
    ctx.tracer->emit(obs::TraceLevel::kRound, "checkpoint_resume",
                     {{"round", start_round},
                      {"records", ctx.history.size()},
                      {"cum_delay_s", ctx.cum_delay},
                      {"cum_energy_j", ctx.cum_energy}});
  }

  // Cadenced snapshot writer.  Called after the round's record lands on
  // every path that completes a round (churn-skipped rounds included), so
  // the stored trace_seq sits exactly at the boundary a resumed run
  // re-emits from.
  const auto maybe_write_checkpoint = [&](std::size_t round) {
    if (!checkpoint_due(options, round + 1)) return;
    obs::ScopedSpan span(ctx.profiler, "checkpoint", static_cast<std::int64_t>(round));
    write_checkpoint(world, ctx, snapshot(world, ctx, round + 1), round + 1, round);
  };

  for (std::size_t round = start_round; round < options.max_rounds; ++round) {
    if (world.batteries_enabled() && world.batteries.alive_count() == 0) {
      util::log_info(std::string(world.engine) + ": whole fleet depleted after round " +
                     std::to_string(round));
      break;
    }

    // Availability churn advances once per round, before selection.
    ctx.injector.begin_round();

    // --- select (line 4): Γ_j and F_Γj; with fading the strategy ranks
    // users by the (stale) delays of the init phase.
    std::vector<std::uint8_t> selectable;
    const sched::FleetView fleet = selectable_fleet(world, ctx, {}, selectable);
    const std::size_t available = fleet.alive_count();
    if (ctx.traces(obs::TraceLevel::kRound)) {
      ctx.tracer->emit(obs::TraceLevel::kRound, "round_start",
                       {{"round", round},
                        {"available", available},
                        {"alive", world.alive_users()}});
    }
    sched::Decision decision;
    {
      obs::ScopedSpan selection_span(ctx.profiler, "selection",
                                     static_cast<std::int64_t>(round));
      if (available > 0) decision = world.strategy.decide(fleet, round);
    }
    if (decision.selected.empty()) {
      if (ctx.injector.active() && ctx.injector.away_count() > 0) {
        // Churn emptied the selectable fleet this round; that is transient
        // (rejoin_rate > 0), so record a failed round and keep going.
        skip_round(world, ctx, round, available);
        maybe_write_checkpoint(round);
        continue;
      }
      util::log_info(std::string(world.engine) +
                     ": strategy returned no users; stopping");
      break;
    }

    // --- DVFS check.
    check_decision(world, fleet, decision);
    ctx.fading.step();

    // --- local train (lines 6-7), in parallel.  Streams fork on
    // (round, user) alone, so a client's draws are the same no matter when
    // or where its task runs.
    const std::size_t cohort = decision.selected.size();
    std::vector<ClientDraw> draws;
    draws.reserve(cohort);
    for (const std::size_t user : decision.selected) {
      draws.push_back(draw_client(ctx, user, round * world.users.size() + user, round));
    }
    const std::vector<float> round_state =
        ctx.has_state ? nn::extract_state(world.model) : std::vector<float>{};
    std::vector<ClientOutcome> outcomes(cohort);
    {
      obs::ScopedSpan training_span(ctx.profiler, "local_training",
                                    static_cast<std::int64_t>(round));
      run_cohort(world, ctx, cohort, decision.selected, round, [&](std::size_t k) {
        outcomes[k] = train_client(world, ctx, round, decision.selected[k],
                                   decision.frequencies_hz[k], draws[k], round_state);
      });
    }

    // --- TDMA / faults (line 8).
    std::vector<Landing> landings(cohort);
    const double round_delay = run_tdma(world, ctx, round, decision, outcomes, landings);
    trace_faults(world, ctx, round, decision, draws, landings);

    // --- aggregate (line 10) and account (Eqs. 10-11).
    RoundRecord record = aggregate(world, ctx, round, decision, outcomes, landings);
    if (world.batteries_enabled()) {
      for (std::size_t k = 0; k < cohort; ++k) {
        world.batteries.drain(decision.selected[k], outcomes[k].energy_j);
      }
    }
    ctx.cum_delay += round_delay;
    ctx.cum_energy += record.round_energy_j;
    record.round_delay_s = round_delay;
    record.cum_delay_s = ctx.cum_delay;
    record.cum_energy_j = ctx.cum_energy;
    record.alive_users = world.alive_users();
    record.available_users = available;

    // --- evaluate, then Algorithm 1's exits.
    const bool over_deadline = ctx.cum_delay > options.deadline_s;
    const std::size_t trained = cohort - record.crashed;
    const bool target_reached =
        close_round(world, ctx, std::move(record), trained,
                    round + 1 == options.max_rounds, over_deadline);
    maybe_write_checkpoint(round);
    if (should_stop(world, ctx, round, over_deadline, target_reached)) break;
  }
  return finish_run(world, ctx);
}

}  // namespace stages
}  // namespace helcfl::fl

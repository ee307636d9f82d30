// Extension experiment E8 (DESIGN.md §16, docs/ASYNC.md): the round-engine
// comparison under stragglers.
//
// The barrier engine pays the paper's Eq.-(10) round delay: every round is
// gated by its slowest member, so a 10% population of 4x-slowed stragglers
// stretches *every* cohort that draws one.  The FedBuff-style engine
// aggregates the first K arrivals and lets stragglers finish late (their
// updates enter a later step, staleness-discounted), so the wall-clock
// between model updates stays near the fast quantile.  This bench runs the
// same workload through sync, async, and semi-async (buffer_k = 0) engines
// and reports time-to-target-accuracy, per-step delay, and the energy spent
// on updates that never entered the model.
//
//   bench_ext_async [--rounds=N] [--users=Q] [--buffer-k=K]
//                   [--straggler-rate=F] [--bench-json=PATH] [--git-sha=SHA]
//
// Defaults: 60 rounds, Q = 100, K = 3/4 cohort, 10% stragglers.  CI smoke
// runs a few rounds and asserts async time-to-target <= sync from the JSON
// (BENCH_ext_async.json, which opens with the bench_host.h host block).
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "bench_host.h"
#include "fl/async_trainer.h"
#include "sched/scheduler.h"
#include "util/args.h"
#include "util/csv.h"

namespace {

struct EngineResult {
  std::string name;
  std::string mode;
  std::size_t buffer_k = 0;
  helcfl::fl::TrainingHistory history;
};

/// Earliest simulated time at which an evaluated record reached `target`
/// accuracy; falls back to the full trajectory's end when never reached.
struct TimeToTarget {
  double seconds = 0.0;
  bool reached = false;
};

TimeToTarget time_to_target(const helcfl::fl::TrainingHistory& history,
                            double target) {
  for (const auto& record : history.rounds()) {
    if (record.evaluated && record.test_accuracy >= target) {
      return {record.cum_delay_s, true};
    }
  }
  return {history.total_delay_s(), false};
}

}  // namespace

int main(int argc, char** argv) {
  using namespace helcfl;
  sim::ExperimentConfig base = bench::evaluation_config(/*noniid=*/false);
  std::size_t rounds = 0, users = 0, cohort = 0, buffer_k = 0;
  double straggler_rate = 0.0, straggler_slowdown = 0.0;
  std::string json_path, git_sha;
  sim::Observability observability =
      bench::parse_bench_flags(argc, argv, [&](const util::ArgParser& args) {
        rounds = args.get_count_or("rounds", 60);
        users = args.get_count_or("users", 100);
        straggler_rate = args.get_double_or("straggler-rate", 0.10);
        // Per-straggler slowdown is drawn U(1, this); 10x is the deep tail
        // of a backgrounded / thermally-throttled handset, the regime
        // FedBuff targets.
        straggler_slowdown = args.get_double_or("straggler-slowdown", 10.0);
        json_path = args.get_or("bench-json", "BENCH_ext_async.json");
        git_sha = args.get_or("git-sha", "unknown");
        cohort = sched::selection_count(users, base.fraction);
        buffer_k = args.get_count_or(
            "buffer-k",
            std::max<std::size_t>(base.trainer.min_clients, (3 * cohort) / 4));
      }).observability;

  base.scheme = sim::Scheme::kHelcfl;
  base.n_users = users;
  base.trainer.max_rounds = rounds;
  base.trainer.eval_every = 2;
  // The straggler regime async exists for: a slow tail, no cutoff, so the
  // barrier engine eats the full tail every time it draws one.
  base.trainer.faults.straggler_rate = straggler_rate;
  base.trainer.faults.straggler_slowdown = straggler_slowdown;
  base.trainer.faults.enabled = straggler_rate > 0.0;
  base.trainer.obs = observability.instruments();

  std::printf("=== E8: sync vs async round engine (%zu users, cohort %zu, "
              "%zu rounds, %.0f%% stragglers, slowdown U(1,%.0f)) ===\n\n",
              users, cohort, rounds, straggler_rate * 100.0, straggler_slowdown);

  std::vector<EngineResult> results;
  const auto run_engine = [&](const std::string& name, fl::AsyncOptions::Mode mode,
                              std::size_t k) {
    sim::ExperimentConfig config = base;
    config.async.mode = mode;
    config.async.buffer_k = k;
    config.async.staleness_beta = 0.5;
    std::printf("  running %-10s ...", name.c_str());
    std::fflush(stdout);
    const sim::ExperimentResult result = sim::run_experiment(config);
    std::printf(" steps=%zu best=%.2f%% delay=%s wasted=%s\n",
                result.history.size(), result.history.best_accuracy() * 100.0,
                sim::format_minutes(result.history.total_delay_s()).c_str(),
                sim::format_joules(result.history.total_wasted_energy_j()).c_str());
    results.push_back({name, fl::async_mode_name(mode), k, result.history});
  };

  run_engine("sync", fl::AsyncOptions::Mode::kSync, 0);
  run_engine("async", fl::AsyncOptions::Mode::kAsync, buffer_k);
  run_engine("semiasync", fl::AsyncOptions::Mode::kAsync, 0);

  // Target: 95% of the *worst* engine's best accuracy, so every engine
  // reaches it and time-to-target compares like against like.
  double floor_accuracy = 1.0;
  for (const EngineResult& r : results) {
    floor_accuracy = std::min(floor_accuracy, r.history.best_accuracy());
  }
  const double target = 0.95 * floor_accuracy;

  util::CsvWriter csv(bench::csv_path("ext_async.csv"),
                      {"engine", "mode", "buffer_k", "steps", "time_to_target_s",
                       "reached_target", "best_accuracy", "total_delay_s",
                       "delay_per_step_s", "total_energy_j", "wasted_energy_j"});

  std::printf("\n  target accuracy %.2f%% (0.95 x weakest engine)\n\n", target * 100.0);
  std::printf("  %-10s %8s %16s %10s %14s %12s\n", "engine", "steps",
              "t->target", "best acc", "delay/step", "wasted E");

  std::ofstream json(json_path);
  json << "{\n";
  bench::write_host_json(json, git_sha);
  json << "  \"straggler_rate\": " << straggler_rate
       << ",\n  \"target_accuracy\": " << target << ",\n  \"benchmarks\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const EngineResult& r = results[i];
    const TimeToTarget ttt = time_to_target(r.history, target);
    const double steps = static_cast<double>(std::max<std::size_t>(r.history.size(), 1));
    const double per_step = r.history.total_delay_s() / steps;

    std::printf("  %-10s %8zu %14.1fs%s %9.2f%% %13.2fs %11.1fJ\n",
                r.name.c_str(), r.history.size(), ttt.seconds,
                ttt.reached ? " " : "*", r.history.best_accuracy() * 100.0,
                per_step, r.history.total_wasted_energy_j());

    csv.write_row({r.name, r.mode, util::CsvWriter::field(r.buffer_k),
                   util::CsvWriter::field(r.history.size()),
                   util::CsvWriter::field(ttt.seconds),
                   util::CsvWriter::field(ttt.reached ? 1 : 0),
                   util::CsvWriter::field(r.history.best_accuracy()),
                   util::CsvWriter::field(r.history.total_delay_s()),
                   util::CsvWriter::field(per_step),
                   util::CsvWriter::field(r.history.total_energy_j()),
                   util::CsvWriter::field(r.history.total_wasted_energy_j())});

    json << "    {\"name\": \"ext_async/" << r.name << "\", \"mode\": \""
         << r.mode << "\", \"buffer_k\": " << r.buffer_k
         << ", \"steps\": " << r.history.size()
         << ", \"time_to_target_s\": " << ttt.seconds
         << ", \"reached_target\": " << (ttt.reached ? "true" : "false")
         << ", \"best_accuracy\": " << r.history.best_accuracy()
         << ", \"total_delay_s\": " << r.history.total_delay_s()
         << ", \"delay_per_step_s\": " << per_step
         << ", \"total_energy_j\": " << r.history.total_energy_j()
         << ", \"wasted_energy_j\": " << r.history.total_wasted_energy_j()
         << "}" << (i + 1 < results.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";

  std::printf("\n(* = target not reached; time shown is the full trajectory)\n"
              "The async engine's step clock follows the K-th fastest arrival\n"
              "instead of the slowest cohort member, so under a straggler tail\n"
              "its time-to-target stays at or below the barrier engine's.\n");
  std::printf("rows written to bench_results/ext_async.csv and %s\n",
              json_path.c_str());
  observability.finish();
  return 0;
}

// Extension experiment E7 (DESIGN.md §8): training under injected failures.
//
// The paper's evaluation assumes every selected user finishes its local
// update and upload; mobile fleets do not.  This bench sweeps fault
// intensity (client crashes + transient stragglers + upload losses) across
// HELCFL, Classic FL, and FedCS, with the robustness policies of the
// failure-aware trainer switched on (bounded retries, straggler cutoff,
// quorum aggregation): accuracy still reached, rounds lost to quorum
// failures, and the energy wasted on updates that never entered the model.
//
//   bench_ext_resilience [--rounds=N]   (default 150; CI smoke uses 5)
#include "bench_common.h"
#include "util/args.h"
#include "util/csv.h"

int main(int argc, char** argv) {
  using namespace helcfl;
  std::size_t rounds = 0;
  auto [observability, checkpoint] =
      bench::parse_bench_flags(argc, argv, [&](const util::ArgParser& args) {
        rounds = args.get_count_or("rounds", 150);
      });

  struct FaultLevel {
    const char* label;
    double crash_rate;
    double straggler_rate;
    double upload_failure_rate;
  };
  constexpr FaultLevel kLevels[] = {
      {"none", 0.0, 0.0, 0.0},
      {"mild", 0.05, 0.10, 0.05},
      {"harsh", 0.20, 0.30, 0.20},
  };

  util::CsvWriter csv(bench::csv_path("ext_resilience.csv"),
                      {"scheme", "faults", "rounds", "failed_rounds", "crashes",
                       "upload_failures", "dropped_late", "retries", "best_accuracy",
                       "total_energy_j", "wasted_energy_j", "fairness"});

  std::printf("=== E7: resilience under injected failures (non-IID, %zu rounds) ===\n\n",
              rounds);
  std::printf("%-12s %-7s %8s %8s %10s %10s %12s %12s\n", "scheme", "faults",
              "rounds", "failed", "crashes", "retries", "best acc", "wasted E");

  for (const auto scheme :
       {sim::Scheme::kHelcfl, sim::Scheme::kClassicFl, sim::Scheme::kFedCs}) {
    for (const FaultLevel& level : kLevels) {
      sim::ExperimentConfig config = bench::evaluation_config(/*noniid=*/true);
      config.scheme = scheme;
      config.trainer.max_rounds = rounds;
      config.trainer.eval_every = 5;
      config.trainer.faults.crash_rate = level.crash_rate;
      config.trainer.faults.straggler_rate = level.straggler_rate;
      config.trainer.faults.straggler_slowdown = 4.0;
      config.trainer.faults.upload_failure_rate = level.upload_failure_rate;
      config.trainer.faults.enabled = config.trainer.faults.any_fault_possible();
      config.trainer.max_upload_retries = 2;
      config.trainer.retry_backoff_s = 0.5;
      config.trainer.min_clients = 3;
      config.trainer.obs = observability.instruments();
      // Each (scheme, fault level) cell is an independent run and needs its
      // own checkpoint file (run_scheme's per-scheme paths would collide
      // across the three levels, and resuming a "harsh" run from a "none"
      // checkpoint would silently mix trajectories).
      if (checkpoint.every > 0) {
        config.trainer.checkpoint_every = checkpoint.every;
        config.trainer.checkpoint_path = bench::scheme_checkpoint_path(
            checkpoint.path_prefix + "_" + level.label, scheme);
      }
      if (!checkpoint.resume_prefix.empty()) {
        const std::string resume = bench::scheme_checkpoint_path(
            checkpoint.resume_prefix + "_" + level.label, scheme);
        if (std::filesystem::exists(resume)) config.trainer.resume_from = resume;
      }
      const sim::ExperimentResult result = sim::run_experiment(config);
      const auto& h = result.history;

      std::printf("%-12s %-7s %8zu %8zu %10zu %10zu %11.2f%% %11.1fJ\n",
                  result.scheme.c_str(), level.label, h.size(),
                  h.failed_round_count(), h.total_crashes(), h.total_retries(),
                  h.best_accuracy() * 100.0, h.total_wasted_energy_j());

      csv.write_row({result.scheme, level.label, util::CsvWriter::field(h.size()),
                     util::CsvWriter::field(h.failed_round_count()),
                     util::CsvWriter::field(h.total_crashes()),
                     util::CsvWriter::field(h.total_upload_failures()),
                     util::CsvWriter::field(h.total_dropped_late()),
                     util::CsvWriter::field(h.total_retries()),
                     util::CsvWriter::field(h.best_accuracy()),
                     util::CsvWriter::field(h.total_energy_j()),
                     util::CsvWriter::field(h.total_wasted_energy_j()),
                     util::CsvWriter::field(h.selection_fairness(config.n_users))});
    }
  }

  std::printf("\nCompletion feedback keeps the schedulers honest under faults:\n"
              "HELCFL's decay counters only advance for clients whose update\n"
              "entered the model, and FedCS/Oort demote chronically failing\n"
              "devices, so accuracy degrades gracefully as fault rates rise.\n");
  std::printf("rows written to bench_results/ext_resilience.csv\n");
  observability.finish();
  return 0;
}

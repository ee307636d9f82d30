// Ablation A1 (DESIGN.md): sensitivity of HELCFL to the decay coefficient
// eta of Eq. (20).  The paper does not report its eta; this bench sweeps it
// and reports best accuracy, time to the mid target, total delay, and
// Jain's fairness of user participation.
//
// Expected shape: small eta decays fast-user utility quickly (round-robin-
// like: fair but slow rounds); eta -> 1 degenerates toward FedCS-style pure
// greed (fast rounds, unfair, accuracy ceiling).  Intermediate eta wins.
#include "bench_common.h"
#include "util/csv.h"

int main(int argc, char** argv) {
  using namespace helcfl;
  sim::Observability observability = bench::parse_bench_flags(argc, argv).observability;
  const double etas[] = {0.5, 0.7, 0.8, 0.9, 0.95, 0.99};
  constexpr double kTarget = 0.58;

  util::CsvWriter csv(bench::csv_path("ablation_eta.csv"),
                      {"eta", "best_accuracy", "time_to_target_min", "total_delay_min",
                       "fairness"});

  std::printf("=== Ablation A1: decay coefficient eta (non-IID, %.0f%% target) ===\n\n",
              kTarget * 100.0);
  std::printf("%-8s %10s %14s %13s %10s\n", "eta", "best acc", "t@target", "total delay",
              "fairness");
  for (const double eta : etas) {
    sim::ExperimentConfig config = bench::evaluation_config(/*noniid=*/true);
    config.trainer.max_rounds = 200;
    config.eta = eta;
    config.scheme = sim::Scheme::kHelcfl;
    config.trainer.obs = observability.instruments();
    const sim::ExperimentResult result = sim::run_experiment(config);

    const auto t = result.history.time_to_accuracy(kTarget);
    const double fairness = result.history.selection_fairness(config.n_users);
    std::printf("%-8.2f %9.2f%% %14s %13s %10.3f\n", eta,
                result.history.best_accuracy() * 100.0,
                sim::format_minutes_or_x(t).c_str(),
                sim::format_minutes(result.history.total_delay_s()).c_str(), fairness);
    csv.write_row({util::CsvWriter::field(eta),
                   util::CsvWriter::field(result.history.best_accuracy()),
                   t ? util::CsvWriter::field(*t / 60.0) : "X",
                   util::CsvWriter::field(result.history.total_delay_s() / 60.0),
                   util::CsvWriter::field(fairness)});
  }
  std::printf("\nrows written to bench_results/ablation_eta.csv\n");
  observability.finish();
  return 0;
}

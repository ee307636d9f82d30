// Ablation A2 (DESIGN.md): user selection fraction C.  The paper fixes
// C = 0.1 (Section VII-A); this bench sweeps C and reports the accuracy /
// delay / energy trade-off for HELCFL.
//
// Expected shape: larger C covers more data per round (better accuracy per
// round) but serializes more uploads on the shared TDMA uplink, so rounds
// get much longer and energy grows linearly — the reason the paper's C
// stays small under insufficient communication resources.
#include "bench_common.h"
#include "util/csv.h"

int main(int argc, char** argv) {
  using namespace helcfl;
  sim::Observability observability = bench::parse_bench_flags(argc, argv).observability;
  const double fractions[] = {0.05, 0.1, 0.2, 0.3};
  constexpr double kTarget = 0.58;

  util::CsvWriter csv(bench::csv_path("ablation_fraction.csv"),
                      {"fraction", "best_accuracy", "time_to_target_min",
                       "total_delay_min", "total_energy_j", "mean_round_delay_s"});

  std::printf("=== Ablation A2: selection fraction C (non-IID, %.0f%% target) ===\n\n",
              kTarget * 100.0);
  std::printf("%-10s %10s %12s %13s %13s %12s\n", "C", "best acc", "t@target",
              "total delay", "total energy", "round delay");
  for (const double fraction : fractions) {
    sim::ExperimentConfig config = bench::evaluation_config(/*noniid=*/true);
    config.trainer.max_rounds = 150;
    config.fraction = fraction;
    config.scheme = sim::Scheme::kHelcfl;
    config.trainer.obs = observability.instruments();
    const sim::ExperimentResult result = sim::run_experiment(config);

    const auto t = result.history.time_to_accuracy(kTarget);
    const double mean_round =
        result.history.total_delay_s() / static_cast<double>(result.history.size());
    std::printf("%-10.2f %9.2f%% %12s %13s %12.2fJ %11.2fs\n", fraction,
                result.history.best_accuracy() * 100.0,
                sim::format_minutes_or_x(t).c_str(),
                sim::format_minutes(result.history.total_delay_s()).c_str(),
                result.history.total_energy_j(), mean_round);
    csv.write_row({util::CsvWriter::field(fraction),
                   util::CsvWriter::field(result.history.best_accuracy()),
                   t ? util::CsvWriter::field(*t / 60.0) : "X",
                   util::CsvWriter::field(result.history.total_delay_s() / 60.0),
                   util::CsvWriter::field(result.history.total_energy_j()),
                   util::CsvWriter::field(mean_round)});
  }
  std::printf("\nrows written to bench_results/ablation_fraction.csv\n");
  observability.finish();
  return 0;
}

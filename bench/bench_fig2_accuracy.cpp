// Reproduces Fig. 2 of the paper: test-accuracy curves of HELCFL and the
// four baselines (Classic FL, FedCS, FEDL, SL) over 300 training rounds,
// in the IID setting (Fig. 2a) and the non-IID setting (Fig. 2b).
//
// Prints checkpointed curves to stdout and writes the full per-round series
// to bench_results/fig2_{iid,noniid}_<scheme>.csv.
#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace helcfl;
  auto [observability, checkpoint] = bench::parse_bench_flags(argc, argv);
  const sim::Scheme schemes[] = {sim::Scheme::kHelcfl, sim::Scheme::kClassicFl,
                                 sim::Scheme::kFedCs, sim::Scheme::kFedl,
                                 sim::Scheme::kSl};

  for (const bool noniid : {false, true}) {
    const char* setting = noniid ? "noniid" : "iid";
    // Both settings sweep the same schemes: keep their checkpoints apart.
    bench::CheckpointFlags setting_ckpt = checkpoint;
    if (!setting_ckpt.path_prefix.empty()) setting_ckpt.path_prefix += std::string("_") + setting;
    if (!setting_ckpt.resume_prefix.empty()) setting_ckpt.resume_prefix += std::string("_") + setting;
    std::printf("=== Fig. 2%s: accuracy vs training round (%s) ===\n",
                noniid ? "b" : "a", noniid ? "non-IID" : "IID");

    std::vector<std::string> labels;
    std::vector<fl::TrainingHistory> histories;
    for (const auto scheme : schemes) {
      sim::ExperimentResult result =
          bench::run_scheme(bench::evaluation_config(noniid), scheme,
                            observability.instruments(), setting_ckpt);
      sim::write_history_csv(
          bench::csv_path(std::string("fig2_") + setting + "_" + result.scheme + ".csv"),
          result.history);
      labels.push_back(result.scheme);
      histories.push_back(std::move(result.history));
    }

    std::printf("\n");
    sim::print_accuracy_curves(labels, histories, /*checkpoints=*/10);

    // The paper's headline: accuracy improvement of HELCFL over each
    // baseline at the end of training.
    const double helcfl_best = histories[0].best_accuracy();
    std::printf("\nHELCFL best accuracy: %.2f%%; improvement over baselines:\n",
                helcfl_best * 100.0);
    for (std::size_t i = 1; i < labels.size(); ++i) {
      std::printf("  vs %-10s %+.2f pp\n", labels[i].c_str(),
                  (helcfl_best - histories[i].best_accuracy()) * 100.0);
    }
    std::printf("\n");
  }
  std::printf("series written to bench_results/fig2_*.csv\n");
  observability.finish();
  return 0;
}

// Reproduces Table I of the paper: training delay to obtain desired
// accuracy, for HELCFL and the four baselines, in both data settings.
//
// The paper's absolute targets (60/70/80% IID, 40/50/60% non-IID) belong to
// SqueezeNet-on-CIFAR-10; our synthetic task plateaus near 72%, so the
// targets are rescaled to probe the same three regimes (easy / mid / near-
// plateau) — see EXPERIMENTS.md.  "X" = the scheme never reaches the target
// within 300 rounds, exactly as in the paper.
#include "bench_common.h"
#include "util/csv.h"

int main(int argc, char** argv) {
  using namespace helcfl;
  auto [observability, checkpoint] = bench::parse_bench_flags(argc, argv);
  const sim::Scheme schemes[] = {sim::Scheme::kHelcfl, sim::Scheme::kClassicFl,
                                 sim::Scheme::kFedCs, sim::Scheme::kFedl,
                                 sim::Scheme::kSl};
  const double iid_targets[] = {0.55, 0.62, 0.68};
  const double noniid_targets[] = {0.50, 0.58, 0.65};

  util::CsvWriter csv(bench::csv_path("table1_delay.csv"),
                      {"setting", "scheme", "target", "delay_min"});

  for (const bool noniid : {false, true}) {
    const auto& targets = noniid ? noniid_targets : iid_targets;
    // Both settings sweep the same schemes: keep their checkpoints apart.
    bench::CheckpointFlags setting_ckpt = checkpoint;
    const char* setting = noniid ? "_noniid" : "_iid";
    if (!setting_ckpt.path_prefix.empty()) setting_ckpt.path_prefix += setting;
    if (!setting_ckpt.resume_prefix.empty()) setting_ckpt.resume_prefix += setting;
    std::printf("=== Table I (%s): training delay to desired accuracy ===\n",
                noniid ? "non-IID" : "IID");

    std::vector<std::string> labels;
    std::vector<fl::TrainingHistory> histories;
    for (const auto scheme : schemes) {
      sim::ExperimentResult result =
          bench::run_scheme(bench::evaluation_config(noniid), scheme,
                            observability.instruments(), setting_ckpt);
      labels.push_back(result.scheme);
      histories.push_back(std::move(result.history));
    }

    std::printf("\n%-16s", "desired acc");
    for (const double t : targets) std::printf("  %9.0f%%", t * 100.0);
    std::printf("\n");
    for (std::size_t i = 0; i < labels.size(); ++i) {
      std::printf("%-16s", labels[i].c_str());
      for (const double target : targets) {
        const auto delay = histories[i].time_to_accuracy(target);
        std::printf("  %10s", sim::format_minutes_or_x(delay).c_str());
        csv.write_row({noniid ? "noniid" : "iid", labels[i],
                       util::CsvWriter::field(target),
                       delay ? util::CsvWriter::field(*delay / 60.0) : "X"});
      }
      std::printf("\n");
    }

    // Speedups of HELCFL at the hardest reached target (paper style).
    const double hardest = targets[2];
    const auto t_helcfl = histories[0].time_to_accuracy(hardest);
    if (t_helcfl) {
      std::printf("\nHELCFL speedups at the %.0f%% target:\n", hardest * 100.0);
      for (std::size_t i = 1; i < labels.size(); ++i) {
        const auto t = histories[i].time_to_accuracy(hardest);
        if (t) {
          std::printf("  vs %-10s %.2f%%\n", labels[i].c_str(), *t / *t_helcfl * 100.0);
        } else {
          std::printf("  vs %-10s X (target unreached)\n", labels[i].c_str());
        }
      }
    }
    std::printf("\n");
  }
  std::printf("rows written to bench_results/table1_delay.csv\n");
  observability.finish();
  return 0;
}

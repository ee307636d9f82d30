// Reproduces Fig. 3 of the paper: training energy-cost reduction brought by
// the DVFS-enabled frequency determination (Algorithm 3).
//
// Both arms use the same greedy-decay selection, so their accuracy
// trajectories are identical round by round; the only difference is the
// operating frequency of the selected devices.  We report, per desired
// accuracy, the cumulative energy to reach it with and without DVFS and
// the resulting reduction — the bars of Fig. 3.
#include "bench_common.h"
#include "util/csv.h"

int main(int argc, char** argv) {
  using namespace helcfl;
  auto [observability, checkpoint] = bench::parse_bench_flags(argc, argv);
  const double iid_targets[] = {0.55, 0.62, 0.68};
  const double noniid_targets[] = {0.50, 0.58, 0.65};

  util::CsvWriter csv(bench::csv_path("fig3_energy.csv"),
                      {"setting", "target", "energy_dvfs_j", "energy_nodvfs_j",
                       "reduction_pct"});

  for (const bool noniid : {false, true}) {
    const auto& targets = noniid ? noniid_targets : iid_targets;
    // Both settings run the same two schemes: keep their checkpoints apart.
    bench::CheckpointFlags setting_ckpt = checkpoint;
    const char* setting = noniid ? "_noniid" : "_iid";
    if (!setting_ckpt.path_prefix.empty()) setting_ckpt.path_prefix += setting;
    if (!setting_ckpt.resume_prefix.empty()) setting_ckpt.resume_prefix += setting;
    std::printf("=== Fig. 3 (%s): energy reduction via DVFS ===\n",
                noniid ? "non-IID" : "IID");

    const sim::ExperimentResult with_dvfs =
        bench::run_scheme(bench::evaluation_config(noniid), sim::Scheme::kHelcfl,
                          observability.instruments(), setting_ckpt);
    const sim::ExperimentResult without_dvfs = bench::run_scheme(
        bench::evaluation_config(noniid), sim::Scheme::kHelcflNoDvfs,
        observability.instruments(), setting_ckpt);

    std::printf("\n%-14s %14s %14s %12s\n", "desired acc", "HELCFL (J)",
                "w/o DVFS (J)", "reduction");
    for (const double target : targets) {
      const auto e_dvfs = with_dvfs.history.energy_to_accuracy(target);
      const auto e_max = without_dvfs.history.energy_to_accuracy(target);
      if (e_dvfs && e_max) {
        const double reduction = (1.0 - *e_dvfs / *e_max) * 100.0;
        std::printf("%13.0f%% %14.2f %14.2f %11.2f%%\n", target * 100.0, *e_dvfs,
                    *e_max, reduction);
        csv.write_row({noniid ? "noniid" : "iid", util::CsvWriter::field(target),
                       util::CsvWriter::field(*e_dvfs), util::CsvWriter::field(*e_max),
                       util::CsvWriter::field(reduction)});
      } else {
        std::printf("%13.0f%% %14s %14s %12s\n", target * 100.0, "X", "X", "-");
        csv.write_row({noniid ? "noniid" : "iid", util::CsvWriter::field(target), "X",
                       "X", "X"});
      }
    }

    // Whole-run reduction (all 300 rounds).
    const double total_reduction = (1.0 - with_dvfs.history.total_energy_j() /
                                              without_dvfs.history.total_energy_j()) *
                                   100.0;
    std::printf("full 300-round training: %.2fJ vs %.2fJ (%.2f%% saved)\n\n",
                with_dvfs.history.total_energy_j(),
                without_dvfs.history.total_energy_j(), total_reduction);
  }
  std::printf("rows written to bench_results/fig3_energy.csv\n");
  observability.finish();
  return 0;
}

// Ablation A3 (DESIGN.md): what each ingredient of the Eq. (20) utility
// contributes.  Four selection rules, all with Algorithm 3 DVFS:
//   * greedy-decay     — the full HELCFL utility (eta = 0.9);
//   * near-pure-greedy — eta = 0.999: decay is negligible, selection
//                        degenerates toward FedCS-style "fastest forever";
//   * delay-blind      — numerator only (least-selected first): a fair
//                        round-robin that ignores delays entirely;
//   * random           — Classic FL selection.
// Expected shape: greedy-decay matches round-robin/random accuracy while
// being meaningfully faster; near-pure-greedy is fastest per round but hits
// the accuracy ceiling (Section V-A).
#include <algorithm>
#include <numeric>

#include "bench_common.h"
#include "util/csv.h"
#include "core/dvfs.h"
#include "data/partition.h"
#include "data/synthetic_cifar.h"
#include "fl/trainer.h"
#include "nn/models.h"
#include "nn/serialize.h"
#include "sched/random_selection.h"
#include "sim/fleet.h"

namespace {

using namespace helcfl;

/// "Delay-blind" rule: eta^alpha alone — i.e. always pick the users with
/// the fewest appearances (ties by index).  With the delay term removed,
/// the selection is a fair rotation that never favours fast devices.
class RoundRobinSelection : public sched::SelectionStrategy {
 public:
  explicit RoundRobinSelection(double fraction) : fraction_(fraction) {}

  sched::Decision decide(const sched::FleetView& fleet, std::size_t /*round*/) override {
    if (counts_.size() != fleet.users.size()) counts_.assign(fleet.users.size(), 0);
    std::vector<std::size_t> order(fleet.users.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return counts_[a] < counts_[b];
    });
    order.resize(sched::selection_count(fleet.users.size(), fraction_));
    sched::Decision decision;
    decision.selected = order;
    const core::FrequencyPlan plan = core::determine_frequencies(fleet, order);
    for (const auto user : order) {
      decision.frequencies_hz.push_back(plan.frequency_of(user));
      ++counts_[user];
    }
    return decision;
  }

  void reset() override { counts_.clear(); }
  std::string name() const override { return "delay-blind"; }

 private:
  double fraction_;
  std::vector<std::size_t> counts_;
};

}  // namespace

int main(int argc, char** argv) {
  sim::Observability observability = bench::parse_bench_flags(argc, argv).observability;
  constexpr double kTarget = 0.58;
  util::CsvWriter csv(bench::csv_path("ablation_utility.csv"),
                      {"rule", "best_accuracy", "time_to_target_min", "total_delay_min",
                       "fairness"});

  std::printf("=== Ablation A3: utility-function variants (non-IID) ===\n\n");
  std::printf("%-18s %10s %12s %13s %10s\n", "rule", "best acc", "t@target",
              "total delay", "fairness");

  struct Row {
    std::string label;
    sim::ExperimentConfig config;
  };
  std::vector<Row> rows;
  for (const auto& [label, eta] :
       std::initializer_list<std::pair<const char*, double>>{
           {"greedy-decay 0.9", 0.9}, {"near-pure-greedy", 0.999}}) {
    Row row{label, bench::evaluation_config(/*noniid=*/true)};
    row.config.trainer.max_rounds = 200;
    row.config.eta = eta;
    row.config.scheme = sim::Scheme::kHelcfl;
    rows.push_back(row);
  }
  {
    Row row{"random", bench::evaluation_config(/*noniid=*/true)};
    row.config.trainer.max_rounds = 200;
    row.config.scheme = sim::Scheme::kClassicFl;
    rows.push_back(row);
  }

  auto report = [&](const std::string& label, const fl::TrainingHistory& history,
                    std::size_t n_users) {
    const auto t = history.time_to_accuracy(kTarget);
    const double fairness = history.selection_fairness(n_users);
    std::printf("%-18s %9.2f%% %12s %13s %10.3f\n", label.c_str(),
                history.best_accuracy() * 100.0, sim::format_minutes_or_x(t).c_str(),
                sim::format_minutes(history.total_delay_s()).c_str(), fairness);
    csv.write_row({label, util::CsvWriter::field(history.best_accuracy()),
                   t ? util::CsvWriter::field(*t / 60.0) : "X",
                   util::CsvWriter::field(history.total_delay_s() / 60.0),
                   util::CsvWriter::field(fairness)});
  };

  for (auto& row : rows) {
    row.config.trainer.obs = observability.instruments();
    const sim::ExperimentResult result = sim::run_experiment(row.config);
    report(row.label, result.history, row.config.n_users);
  }

  // The delay-blind rule needs a custom strategy, so drive the trainer
  // directly with the same seed-derived workload as run_experiment uses.
  {
    sim::ExperimentConfig config = bench::evaluation_config(/*noniid=*/true);
    config.trainer.max_rounds = 200;
    const util::Rng master(config.seed);
    util::Rng dataset_rng = master.fork(1);
    const data::TrainTestSplit split =
        data::make_synthetic_cifar(config.dataset, dataset_rng);
    util::Rng partition_rng = master.fork(2);
    const data::Partition partition = data::shard_noniid_partition(
        split.train.labels(), config.n_users, config.shards_per_user, partition_rng);
    std::vector<std::size_t> samples;
    for (const auto& s : partition) samples.push_back(s.size());
    util::Rng fleet_rng = master.fork(3);
    const auto devices = sim::make_fleet(config, samples, fleet_rng);
    util::Rng model_rng = master.fork(4);
    const auto model = nn::make_model(config.model, split.train.spec(),
                                      config.dataset.num_classes, model_rng);
    RoundRobinSelection strategy(config.fraction);
    fl::TrainerOptions options = config.trainer;
    options.seed = master.fork(6).next_u64();
    fl::FederatedTrainer trainer(*model, split.train, split.test, partition, devices,
                                 sim::make_channel(config), strategy, options);
    report("delay-blind", trainer.run(), config.n_users);
  }

  std::printf("\nrows written to bench_results/ablation_utility.csv\n");
  observability.finish();
  return 0;
}

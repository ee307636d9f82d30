// Micro-benchmarks (M1, DESIGN.md) of the FLCC-side scheduling path: the
// per-round cost of Algorithm 2, Algorithm 3, the TDMA solver, the FedCS
// greedy, and FedAvg aggregation.  These run on the controller every round,
// so they must stay far below the simulated round times (seconds).
#include <benchmark/benchmark.h>

#include "bench_json.h"

#include "core/dvfs.h"
#include "core/greedy_decay_selection.h"
#include "core/helcfl_scheduler.h"
#include "fl/server.h"
#include "mec/tdma.h"
#include "sched/fedcs.h"
#include "sched/scheduler.h"
#include "sim/config.h"
#include "sim/fleet.h"
#include "util/rng.h"

namespace {

using namespace helcfl;

std::vector<sched::UserInfo> make_users(std::size_t q) {
  sim::ExperimentConfig config = sim::paper_config();
  config.n_users = q;
  util::Rng rng(1);
  const std::vector<std::size_t> samples(q, 40);
  const auto devices = sim::make_fleet(config, samples, rng);
  return sched::build_user_info(devices, sim::make_channel(config), 4e6);
}

void BM_GreedyDecaySelect(benchmark::State& state) {
  const auto users = make_users(static_cast<std::size_t>(state.range(0)));
  core::GreedyDecaySelector selector(0.1, 0.9);
  std::size_t picked = 0;
  for (auto _ : state) {
    auto selected = selector.select({users});
    picked = selected.size();
    benchmark::DoNotOptimize(selected.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(picked));
}
BENCHMARK(BM_GreedyDecaySelect)->Arg(100)->Arg(1000)->Arg(10000);

void BM_Algorithm3Dvfs(benchmark::State& state) {
  const auto users = make_users(static_cast<std::size_t>(state.range(0)));
  std::vector<std::size_t> selected(users.size() / 10);
  for (std::size_t i = 0; i < selected.size(); ++i) selected[i] = i * 10;
  for (auto _ : state) {
    core::FrequencyPlan plan = core::determine_frequencies({users}, selected);
    benchmark::DoNotOptimize(plan.round_delay_s);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(selected.size()));
}
BENCHMARK(BM_Algorithm3Dvfs)->Arg(100)->Arg(1000);

void BM_HelcflFullDecision(benchmark::State& state) {
  const auto users = make_users(static_cast<std::size_t>(state.range(0)));
  core::HelcflScheduler scheduler({.fraction = 0.1, .eta = 0.9});
  std::size_t round = 0;
  std::size_t picked = 0;
  for (auto _ : state) {
    sched::Decision d = scheduler.decide({users}, round++);
    picked = d.selected.size();
    benchmark::DoNotOptimize(d.selected.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(picked));
}
BENCHMARK(BM_HelcflFullDecision)->Arg(100)->Arg(1000);

void BM_TdmaSchedule(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(2);
  std::vector<double> compute(n);
  std::vector<double> upload(n);
  for (std::size_t i = 0; i < n; ++i) {
    compute[i] = rng.uniform(0.1, 3.0);
    upload[i] = rng.uniform(0.1, 1.0);
  }
  for (auto _ : state) {
    mec::TdmaSchedule schedule = mec::schedule_uploads(compute, upload);
    benchmark::DoNotOptimize(schedule.round_delay_s);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_TdmaSchedule)->Arg(10)->Arg(100)->Arg(1000);

void BM_FedCsDecision(benchmark::State& state) {
  const auto users = make_users(static_cast<std::size_t>(state.range(0)));
  sched::FedCsSelection strategy(/*deadline_s=*/8.0);
  std::size_t picked = 0;
  for (auto _ : state) {
    sched::Decision d = strategy.decide({users}, 0);
    picked = d.selected.size();
    benchmark::DoNotOptimize(d.selected.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(picked));
}
BENCHMARK(BM_FedCsDecision)->Arg(100)->Arg(1000);

void BM_FedAvg(benchmark::State& state) {
  const auto dim = static_cast<std::size_t>(state.range(0));
  util::Rng rng(3);
  std::vector<std::vector<float>> weights(10, std::vector<float>(dim));
  for (auto& w : weights) {
    for (auto& v : w) v = static_cast<float>(rng.normal());
  }
  std::vector<fl::WeightedModel> uploads;
  for (auto& w : weights) uploads.push_back({w, 40});
  for (auto _ : state) {
    std::vector<float> avg = fl::fedavg(uploads);
    benchmark::DoNotOptimize(avg.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(dim * 10));
}
BENCHMARK(BM_FedAvg)->Arg(13002)->Arg(1250000);  // our MLP / SqueezeNet-scale

}  // namespace

HELCFL_BENCH_JSON_MAIN()

// Scheduler scale benchmark (ISSUE 6): selections/sec and p99 pick latency
// of Algorithm 2 at fleet sizes Q ∈ {1k, 10k, 100k, 1M}, comparing the
// incremental utility index (O(N log Q) per round) against the retained
// naive re-sort reference (O(Q log Q)).  Each round also revokes a few
// appearances so the index pays its real churn cost, not a read-only
// fast path.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <map>
#include <vector>

#include "bench_json.h"
#include "oracles/greedy_decay_reference.h"
#include "core/greedy_decay_selection.h"
#include "sched/scheduler.h"
#include "sim/config.h"
#include "sim/fleet.h"
#include "util/rng.h"
#include "util/stats.h"

namespace {

using namespace helcfl;

constexpr double kFraction = 0.01;  // N = Q/100 picks per round
constexpr double kEta = 0.9;

// Fleet construction at Q = 1M is far more expensive than the selections
// themselves; cache one fleet per size across benchmark registrations.
const std::vector<sched::UserInfo>& cached_users(std::size_t q) {
  static std::map<std::size_t, std::vector<sched::UserInfo>> cache;
  auto it = cache.find(q);
  if (it == cache.end()) {
    sim::ExperimentConfig config = sim::paper_config();
    config.n_users = q;
    util::Rng rng(1);
    const std::vector<std::size_t> samples(q, 40);
    const auto devices = sim::make_fleet(config, samples, rng);
    it = cache.emplace(q, sched::build_user_info(devices, sim::make_channel(config),
                                                 4e6))
             .first;
  }
  return it->second;
}

// Runs the shared round loop: select, then every 4th round revoke the
// first few picks (failure feedback churns α_q both directions).  Reports
// per-select p99 latency and selections/sec (items == picks).
template <typename Selector>
void run_rounds(benchmark::State& state, Selector& selector,
                const std::vector<sched::UserInfo>& users) {
  const sched::FleetView fleet{users};
  std::vector<double> select_us;
  std::size_t rounds = 0;
  std::size_t picked = 0;
  for (auto _ : state) {
    const auto start = std::chrono::steady_clock::now();
    const std::vector<std::size_t> selected = selector.select(fleet);
    const auto end = std::chrono::steady_clock::now();
    select_us.push_back(
        std::chrono::duration<double, std::micro>(end - start).count());
    picked = selected.size();
    benchmark::DoNotOptimize(selected.data());
    if (++rounds % 4 == 0) {
      for (std::size_t k = 0; k < std::min<std::size_t>(8, selected.size()); ++k) {
        selector.revoke_appearance(selected[k]);
      }
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(picked));
  if (!select_us.empty()) {
    state.counters["p99_select_us"] = util::percentile(select_us, 99.0);
  }
}

void BM_IndexSelect(benchmark::State& state) {
  const auto& users = cached_users(static_cast<std::size_t>(state.range(0)));
  core::GreedyDecaySelector selector(kFraction, kEta);
  run_rounds(state, selector, users);
}
BENCHMARK(BM_IndexSelect)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(100000)
    ->Arg(1000000)
    ->Iterations(100)
    ->Unit(benchmark::kMicrosecond);

void BM_ReferenceSelect(benchmark::State& state) {
  const auto& users = cached_users(static_cast<std::size_t>(state.range(0)));
  core::GreedyDecayReference selector(kFraction, kEta);
  run_rounds(state, selector, users);
}
BENCHMARK(BM_ReferenceSelect)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(100000)
    ->Iterations(100)
    ->Unit(benchmark::kMicrosecond);
// The reference at Q = 1M takes ~1 s per round; a handful of iterations
// is enough to pin the comparison point without a minute-long run.
BENCHMARK(BM_ReferenceSelect)
    ->Arg(1000000)
    ->Iterations(5)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

// Scale rows are recorded into the scheduler micro-bench JSON
// (--bench-json=BENCH_micro_sched.json) so one file carries all FLCC-side
// throughput numbers.
HELCFL_BENCH_JSON_MAIN()

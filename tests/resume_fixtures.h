// Shared harness for the checkpoint/resume equivalence tests.
//
// The contract under test (docs/CHECKPOINT.md): a run that saves a
// checkpoint at round k, dies, and resumes must be *bitwise* identical to
// one that never stopped — final weights, per-round metrics, the metrics
// CSV, and the trace suffix from the saved `trace_seq` on (modulo the seq
// renumbering a fresh tracer performs and the checkpoint/run lifecycle
// events themselves).  The harness runs a golden uninterrupted pass that
// drops a cadence of "{round}"-templated snapshots, then replays from one
// of them and compares everything.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/helcfl_scheduler.h"
#include "fl/async_trainer.h"
#include "fl/metrics.h"
#include "fl/trainer.h"
#include "fl_fixtures.h"
#include "nn/models.h"
#include "nn/serialize.h"
#include "obs/trace.h"
#include "sched/fedcs.h"
#include "sched/fedl.h"
#include "sched/oort.h"
#include "sched/random_selection.h"
#include "sim/report.h"
#include "util/rng.h"

namespace helcfl::testing {

constexpr std::size_t kResumeUsers = 12;
constexpr std::size_t kResumeRounds = 6;
constexpr std::uint64_t kResumeSeed = 1234;

/// Fixture keys the equivalence matrix covers.  Most are
/// SelectionStrategy::name() strings; "HELCFL-eta1" is a configuration
/// variant (η = 1, the tie-heavy no-decay regime) whose name() is still
/// "HELCFL" — the checkpoint validates name(), not the fixture key.
inline const std::vector<std::string>& resume_strategies() {
  static const std::vector<std::string> kNames = {
      "HELCFL", "HELCFL-eta1", "ClassicFL", "FedCS", "FEDL", "Oort"};
  return kNames;
}

/// Builds a fresh strategy by name().  Every call returns an identical
/// object (fixed options, fixed RNG fork), so the golden and resumed runs
/// construct the same initial state and load_state() only has to move the
/// cursors forward.
inline std::unique_ptr<sched::SelectionStrategy> make_resume_strategy(
    const std::string& name) {
  util::Rng rng = util::Rng(kResumeSeed).fork(5);
  if (name == "HELCFL") {
    return std::make_unique<core::HelcflScheduler>(
        core::HelcflOptions{.fraction = 0.34, .eta = 0.9, .enable_dvfs = true});
  }
  if (name == "HELCFL-eta1") {
    // η = 1 disables decay: every round is an all-ties ranking, the worst
    // case for the utility index's stable-sort tie-break contract.
    return std::make_unique<core::HelcflScheduler>(
        core::HelcflOptions{.fraction = 0.34, .eta = 1.0, .enable_dvfs = true});
  }
  if (name == "ClassicFL") {
    return std::make_unique<sched::RandomSelection>(0.34, rng);
  }
  if (name == "FedCS") {
    // Tight enough that the greedy packing actually excludes slow users.
    return std::make_unique<sched::FedCsSelection>(900.0, 0.5);
  }
  if (name == "FEDL") {
    return std::make_unique<sched::FedlSelection>(0.34, 0.2, rng);
  }
  if (name == "Oort") {
    sched::OortOptions options;
    options.fraction = 0.34;
    return std::make_unique<sched::OortSelection>(options, rng);
  }
  throw std::invalid_argument("make_resume_strategy: unknown strategy " + name);
}

/// Trainer options for the equivalence matrix: small but exercising
/// evaluation cadence, mini-batch RNG, retries, and (optionally) every
/// fault class at once.
inline fl::TrainerOptions resume_options(bool faults, std::size_t threads) {
  fl::TrainerOptions options;
  options.max_rounds = kResumeRounds;
  options.eval_every = 2;
  options.client.learning_rate = 0.1F;
  options.client.local_steps = 2;
  options.client.batch_size = 4;
  options.model_size_bits = 4e6;
  options.num_threads = threads;
  options.seed = kResumeSeed;
  if (faults) {
    options.faults.crash_rate = 0.15;
    options.faults.upload_failure_rate = 0.2;
    options.faults.straggler_rate = 0.3;
    options.faults.straggler_slowdown = 3.0;
    options.faults.leave_rate = 0.1;
    options.faults.rejoin_rate = 0.5;
    options.faults.enabled = true;
    options.max_upload_retries = 1;
    options.retry_backoff_s = 0.05;
  }
  return options;
}

/// Battery capacity (J) at which resume_options() runs deplete some of the
/// fleet mid-run: small enough that devices die, large enough that others
/// keep training to the last round.
constexpr double kResumeBatteryJ = 0.2;

/// resume_options() with batteries of kResumeBatteryJ.
inline fl::TrainerOptions with_batteries(fl::TrainerOptions options) {
  options.battery_capacity_j = kResumeBatteryJ;
  return options;
}

/// True when some record of `history` ran with part of the fleet depleted.
inline bool some_device_depleted(const fl::TrainingHistory& history) {
  for (const fl::RoundRecord& record : history.rounds()) {
    if (record.alive_users < kResumeUsers) return true;
  }
  return false;
}

/// The dataset / partition / fleet shared by every run of a test; building
/// it once per fixture keeps all runs paired on identical inputs.
struct ResumeWorld {
  ResumeWorld() {
    split = tiny_split(96, 48, 90);
    util::Rng partition_rng(91);
    partition = data::iid_partition(split.train.size(), kResumeUsers, partition_rng);
    devices = linear_fleet(kResumeUsers, partition[0].size());
    for (std::size_t i = 0; i < kResumeUsers; ++i) {
      devices[i].num_samples = partition[i].size();
    }
  }

  data::TrainTestSplit split;
  data::Partition partition;
  std::vector<mec::Device> devices;
};

/// Everything a run leaves behind that resume must reproduce bitwise.
struct ResumeRun {
  fl::TrainingHistory history;
  std::vector<float> final_weights;
  std::string trace;  ///< JSONL, decision level
};

/// Runs one trainer over `world` with a fresh identically-initialized model
/// and strategy.  `options.checkpoint_*` / `options.resume_from` are the
/// caller's to set.
inline ResumeRun run_resume_case(const ResumeWorld& world,
                                 const std::string& strategy_name,
                                 fl::TrainerOptions options) {
  util::Rng model_rng(92);
  const std::unique_ptr<nn::Sequential> model = nn::make_model(
      nn::ModelKind::kLogistic, world.split.train.spec(), 10, model_rng);
  const std::unique_ptr<sched::SelectionStrategy> strategy =
      make_resume_strategy(strategy_name);

  auto stream = std::make_unique<std::ostringstream>();
  std::ostringstream* raw_stream = stream.get();
  obs::Tracer tracer(std::move(stream), obs::TraceLevel::kDecision);
  options.obs.tracer = &tracer;

  fl::FederatedTrainer trainer(*model, world.split.train, world.split.test,
                               world.partition, world.devices, paper_channel(),
                               *strategy, options);
  ResumeRun run;
  run.history = trainer.run();
  run.final_weights = nn::extract_parameters(*model);
  tracer.flush();
  run.trace = raw_stream->str();
  return run;
}

/// run_resume_case's sibling for the async engine (DESIGN.md §16):
/// identical model / strategy / tracer construction, but drives
/// fl::AsyncTrainer with the given engine options.  With a default
/// AsyncOptions (mode = kSync) the output must be bitwise identical to
/// run_resume_case — tests/test_async_differential.cpp enforces exactly
/// that.
inline ResumeRun run_async_case(const ResumeWorld& world,
                                const std::string& strategy_name,
                                fl::TrainerOptions options,
                                fl::AsyncOptions async) {
  util::Rng model_rng(92);
  const std::unique_ptr<nn::Sequential> model = nn::make_model(
      nn::ModelKind::kLogistic, world.split.train.spec(), 10, model_rng);
  const std::unique_ptr<sched::SelectionStrategy> strategy =
      make_resume_strategy(strategy_name);

  auto stream = std::make_unique<std::ostringstream>();
  std::ostringstream* raw_stream = stream.get();
  obs::Tracer tracer(std::move(stream), obs::TraceLevel::kDecision);
  options.obs.tracer = &tracer;

  fl::AsyncTrainer trainer(*model, world.split.train, world.split.test,
                           world.partition, world.devices, paper_channel(),
                           *strategy, options, async);
  ResumeRun run;
  run.history = trainer.run();
  run.final_weights = nn::extract_parameters(*model);
  tracer.flush();
  run.trace = raw_stream->str();
  return run;
}

/// A per-test scratch directory under the build tree, wiped on entry.
inline std::filesystem::path resume_tmp_dir(const std::string& name) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / ("helcfl_resume_" + name);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// write_history_csv output as bytes (resume must reproduce the CSV
/// byte-for-byte, not just field-by-field).
inline std::string history_csv_bytes(const std::filesystem::path& dir,
                                     const std::string& name,
                                     const fl::TrainingHistory& history) {
  const std::string path = (dir / (name + ".csv")).string();
  sim::write_history_csv(path, history);
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// Canonicalizes a JSONL trace for suffix comparison: keeps events with
/// seq >= min_seq, drops run lifecycle and checkpoint events (they differ
/// between an uninterrupted and a resumed run by design), and strips the
/// `"seq":N,` prefix a fresh tracer renumbers.
inline std::vector<std::string> canonical_trace(const std::string& trace,
                                                std::uint64_t min_seq) {
  std::vector<std::string> lines;
  std::istringstream in(trace);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    constexpr std::string_view kSeqPrefix = "{\"seq\":";
    const std::size_t comma = line.find(',');
    if (line.rfind(kSeqPrefix, 0) != 0 || comma == std::string::npos) {
      ADD_FAILURE() << "unexpected trace line: " << line;
      continue;
    }
    const std::uint64_t seq =
        std::stoull(line.substr(kSeqPrefix.size(), comma - kSeqPrefix.size()));
    if (seq < min_seq) continue;
    const std::string rest = "{" + line.substr(comma + 1);
    if (rest.find("\"event\":\"run_start\"") != std::string::npos) continue;
    if (rest.find("\"event\":\"checkpoint_write\"") != std::string::npos) continue;
    if (rest.find("\"event\":\"checkpoint_resume\"") != std::string::npos) continue;
    lines.push_back(rest);
  }
  return lines;
}

/// Bitwise comparison of two full histories (EXPECT_EQ on double is
/// equality, not tolerance).
inline void expect_history_identical(const fl::TrainingHistory& a,
                                     const fl::TrainingHistory& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const fl::RoundRecord& ra = a.rounds()[i];
    const fl::RoundRecord& rb = b.rounds()[i];
    EXPECT_EQ(ra.round, rb.round) << "round " << i;
    EXPECT_EQ(ra.selected, rb.selected) << "round " << i;
    EXPECT_EQ(ra.round_delay_s, rb.round_delay_s) << "round " << i;
    EXPECT_EQ(ra.round_energy_j, rb.round_energy_j) << "round " << i;
    EXPECT_EQ(ra.cum_delay_s, rb.cum_delay_s) << "round " << i;
    EXPECT_EQ(ra.cum_energy_j, rb.cum_energy_j) << "round " << i;
    EXPECT_EQ(ra.train_loss, rb.train_loss) << "round " << i;
    EXPECT_EQ(ra.evaluated, rb.evaluated) << "round " << i;
    EXPECT_EQ(ra.test_loss, rb.test_loss) << "round " << i;
    EXPECT_EQ(ra.test_accuracy, rb.test_accuracy) << "round " << i;
    EXPECT_EQ(ra.alive_users, rb.alive_users) << "round " << i;
    EXPECT_EQ(ra.aggregated, rb.aggregated) << "round " << i;
    EXPECT_EQ(ra.survivors, rb.survivors) << "round " << i;
    EXPECT_EQ(ra.crashed, rb.crashed) << "round " << i;
    EXPECT_EQ(ra.upload_failures, rb.upload_failures) << "round " << i;
    EXPECT_EQ(ra.dropped_late, rb.dropped_late) << "round " << i;
    EXPECT_EQ(ra.retries, rb.retries) << "round " << i;
    EXPECT_EQ(ra.quorum_failed, rb.quorum_failed) << "round " << i;
    EXPECT_EQ(ra.wasted_energy_j, rb.wasted_energy_j) << "round " << i;
    EXPECT_EQ(ra.available_users, rb.available_users) << "round " << i;
  }
}

/// The full equivalence assertion: final weights, history, metrics CSV
/// bytes, and the golden trace suffix from `trace_seq` vs the resumed
/// run's whole trace.
inline void expect_bitwise_resume(const std::filesystem::path& dir,
                                  const ResumeRun& golden, const ResumeRun& resumed,
                                  std::uint64_t trace_seq) {
  EXPECT_FALSE(golden.final_weights.empty());
  EXPECT_EQ(golden.final_weights, resumed.final_weights);
  expect_history_identical(golden.history, resumed.history);
  EXPECT_EQ(history_csv_bytes(dir, "golden", golden.history),
            history_csv_bytes(dir, "resumed", resumed.history));
  const std::vector<std::string> golden_suffix = canonical_trace(golden.trace, trace_seq);
  EXPECT_FALSE(golden_suffix.empty());  // the comparison must not be vacuous
  EXPECT_EQ(golden_suffix, canonical_trace(resumed.trace, 0));
}

}  // namespace helcfl::testing

// Observability must never perturb the simulation (DESIGN.md §9): with any
// combination of tracing / profiling / counters attached, the training
// trace and final weights must stay bitwise identical to an uninstrumented
// run — and identical across worker counts — because the sinks only read
// values the round already computed (no RNG draws, no reordering).
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/helcfl_scheduler.h"
#include "fl/trainer.h"
#include "fl_fixtures.h"
#include "nn/models.h"
#include "nn/serialize.h"
#include "obs/instruments.h"
#include "obs/profiler.h"
#include "obs/registry.h"
#include "obs/trace.h"

namespace helcfl::fl {
namespace {

constexpr std::size_t kUsers = 12;

struct RunResult {
  TrainingHistory history;
  std::vector<float> final_weights;
  std::uint64_t trace_events = 0;
};

class TraceInvarianceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    split_ = testing::tiny_split(300, 80, 90);
    util::Rng prng(91);
    partition_ = data::iid_partition(split_.train.size(), kUsers, prng);
    devices_ = testing::linear_fleet(kUsers, partition_[0].size());
    for (std::size_t i = 0; i < kUsers; ++i) {
      devices_[i].num_samples = partition_[i].size();
    }
  }

  TrainerOptions base_options(std::size_t num_threads) const {
    TrainerOptions options;
    options.max_rounds = 6;
    options.client.learning_rate = 0.1F;
    options.client.local_steps = 2;
    options.client.batch_size = 16;
    options.model_size_bits = 4e6;
    options.num_threads = num_threads;
    // Faults exercise the churn / fault / quorum / retry emission paths.
    options.faults.enabled = true;
    options.faults.crash_rate = 0.15;
    options.faults.straggler_rate = 0.2;
    options.faults.upload_failure_rate = 0.1;
    options.faults.leave_rate = 0.1;
    options.faults.rejoin_rate = 0.5;
    options.max_upload_retries = 1;
    options.min_clients = 1;
    return options;
  }

  RunResult run(const TrainerOptions& options) {
    util::Rng model_rng(92);
    const std::unique_ptr<nn::Sequential> model =
        nn::make_mlp(split_.train.spec(), 16, 10, model_rng);
    core::HelcflScheduler strategy({.fraction = 0.3, .eta = 0.9});
    FederatedTrainer trainer(*model, split_.train, split_.test, partition_,
                             devices_, testing::paper_channel(), strategy,
                             options);
    RunResult result;
    result.history = trainer.run();
    result.final_weights = nn::extract_parameters(*model);
    if (options.obs.tracer != nullptr) {
      result.trace_events = options.obs.tracer->event_count();
    }
    return result;
  }

  /// Bitwise comparison: EXPECT_EQ on doubles is equality, not tolerance.
  static void expect_identical(const RunResult& a, const RunResult& b) {
    EXPECT_EQ(a.final_weights, b.final_weights);
    ASSERT_EQ(a.history.size(), b.history.size());
    for (std::size_t i = 0; i < a.history.size(); ++i) {
      const RoundRecord& ra = a.history.rounds()[i];
      const RoundRecord& rb = b.history.rounds()[i];
      EXPECT_EQ(ra.selected, rb.selected) << "round " << i;
      EXPECT_EQ(ra.aggregated, rb.aggregated) << "round " << i;
      EXPECT_EQ(ra.round_delay_s, rb.round_delay_s) << "round " << i;
      EXPECT_EQ(ra.round_energy_j, rb.round_energy_j) << "round " << i;
      EXPECT_EQ(ra.train_loss, rb.train_loss) << "round " << i;
      EXPECT_EQ(ra.test_loss, rb.test_loss) << "round " << i;
      EXPECT_EQ(ra.test_accuracy, rb.test_accuracy) << "round " << i;
      EXPECT_EQ(ra.crashed, rb.crashed) << "round " << i;
      EXPECT_EQ(ra.retries, rb.retries) << "round " << i;
      EXPECT_EQ(ra.quorum_failed, rb.quorum_failed) << "round " << i;
      EXPECT_EQ(ra.wasted_energy_j, rb.wasted_energy_j) << "round " << i;
    }
  }

  data::TrainTestSplit split_;
  data::Partition partition_;
  std::vector<mec::Device> devices_;
};

/// A full set of sinks at the chattiest level, over an in-memory stream.
struct Sinks {
  Sinks()
      : tracer(std::make_unique<std::ostringstream>(), obs::TraceLevel::kDebug),
        profiler(&tracer) {}
  obs::Instruments instruments() { return {&tracer, &profiler, &registry}; }
  obs::Tracer tracer;
  obs::PhaseProfiler profiler;
  obs::Registry registry;
};

TEST_F(TraceInvarianceTest, TracingOnVsOffIsBitwiseIdentical) {
  const RunResult plain = run(base_options(1));

  Sinks sinks;
  TrainerOptions traced = base_options(1);
  traced.obs = sinks.instruments();
  const RunResult instrumented = run(traced);

  expect_identical(plain, instrumented);
  // The instrumented run really did trace and count.
  EXPECT_GT(instrumented.trace_events, 0U);
  EXPECT_GT(sinks.profiler.span_count(), 0U);
  EXPECT_GT(sinks.registry.counter("rounds.completed"), 0U);
}

TEST_F(TraceInvarianceTest, ThreadCountInvariantWithTracingEnabled) {
  Sinks sinks1;
  TrainerOptions sequential = base_options(1);
  sequential.obs = sinks1.instruments();
  const RunResult threads1 = run(sequential);

  Sinks sinks4;
  TrainerOptions parallel = base_options(4);
  parallel.obs = sinks4.instruments();
  const RunResult threads4 = run(parallel);

  expect_identical(threads1, threads4);
  // Emission happens on the coordinator in deterministic order except the
  // per-client debug spans, whose completion order may differ — but every
  // event both runs emit must exist in both (same count per event type is
  // implied by identical outcomes; spot-check the totals).
  EXPECT_GT(threads1.trace_events, 0U);
  EXPECT_GT(threads4.trace_events, 0U);
  EXPECT_EQ(sinks1.registry.counter("clients.selected"),
            sinks4.registry.counter("clients.selected"));
  EXPECT_EQ(sinks1.registry.counter("clients.crashed"),
            sinks4.registry.counter("clients.crashed"));
  EXPECT_EQ(sinks1.registry.counter("uploads.retries"),
            sinks4.registry.counter("uploads.retries"));
}

TEST_F(TraceInvarianceTest, FaultFreeRunAlsoInvariant) {
  TrainerOptions options = base_options(2);
  options.faults = {};  // injector inactive: no churn/fault events
  const RunResult plain = run(options);

  Sinks sinks;
  TrainerOptions traced = options;
  traced.obs = sinks.instruments();
  const RunResult instrumented = run(traced);

  expect_identical(plain, instrumented);
}

std::vector<char> file_bytes(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

// The checkpoint records the best accuracy so far; it must be tracked
// whether or not a registry observes it, or attaching --profile would change
// the bytes written and a resumed run's `accuracy.best` gauge would ignore
// every pre-resume round.
TEST_F(TraceInvarianceTest, CheckpointBytesDoNotDependOnAnAttachedRegistry) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("helcfl_registry_ckpt_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const auto with_checkpoints = [&](const std::string& tag) {
    TrainerOptions options = base_options(1);
    options.checkpoint_every = 2;
    options.checkpoint_path = (dir / (tag + "_r{round}.bin")).string();
    return options;
  };

  run(with_checkpoints("plain"));  // no sink at all, so trace_seq is 0 in both
  obs::Registry registry;
  TrainerOptions counted = with_checkpoints("counted");
  counted.obs.registry = &registry;
  run(counted);
  for (const int round : {2, 4, 6}) {
    const std::string suffix = "_r" + std::to_string(round) + ".bin";
    EXPECT_TRUE(file_bytes(dir / ("plain" + suffix)) ==
                file_bytes(dir / ("counted" + suffix)))
        << "checkpoint after round " << round;
  }

  // Resume the registry-free snapshot with a registry attached: the best
  // accuracy gauge covers the replayed rounds too.
  obs::Registry resumed_registry;
  TrainerOptions resumed = base_options(1);
  resumed.resume_from = (dir / "plain_r4.bin").string();
  resumed.obs.registry = &resumed_registry;
  const RunResult result = run(resumed);
  ASSERT_TRUE(resumed_registry.gauge("accuracy.best").has_value());
  EXPECT_EQ(*resumed_registry.gauge("accuracy.best"), result.history.best_accuracy());
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace helcfl::fl

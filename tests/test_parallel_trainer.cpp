// Determinism harness for the parallel round-execution engine: whatever the
// worker count, a training run must produce bitwise-identical metrics rows,
// selection decisions, and final weights, because each client trains on its
// own pre-forked RNG stream and updates are reduced in selection order
// (DESIGN.md §7).  num_threads = 1 is the inline sequential reference path,
// so these tests also pin the parallel engine to the paper's semantics.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>

#include "core/helcfl_scheduler.h"
#include "fl/server.h"
#include "fl/trainer.h"
#include "fl_fixtures.h"
#include "nn/activations.h"
#include "nn/batchnorm.h"
#include "nn/dense.h"
#include "nn/flatten.h"
#include "nn/models.h"
#include "nn/serialize.h"
#include "sched/fedcs.h"
#include "sched/random_selection.h"
#include "sim/simulation.h"
#include "util/thread_pool.h"

namespace helcfl::fl {
namespace {

struct RunResult {
  TrainingHistory history;
  std::vector<float> final_weights;
};

class ParallelTrainerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    split_ = testing::tiny_split(400, 100, 60);
    util::Rng prng(61);
    partition_ = data::iid_partition(split_.train.size(), kUsers, prng);
    devices_ = testing::linear_fleet(kUsers, partition_[0].size());
    for (std::size_t i = 0; i < kUsers; ++i) {
      devices_[i].num_samples = partition_[i].size();
    }
  }

  std::unique_ptr<nn::Sequential> fresh_model(std::uint64_t seed = 62) const {
    util::Rng rng(seed);
    return nn::make_mlp(split_.train.spec(), 16, 10, rng);
  }

  TrainerOptions options_with_threads(std::size_t num_threads) const {
    TrainerOptions options;
    options.max_rounds = 8;
    options.client.learning_rate = 0.1F;
    options.client.local_steps = 2;
    options.client.batch_size = 16;  // exercises per-client RNG streams
    options.model_size_bits = 4e6;
    options.num_threads = num_threads;
    return options;
  }

  RunResult run(nn::Sequential& model, sched::SelectionStrategy& strategy,
                const TrainerOptions& options) {
    FederatedTrainer trainer(model, split_.train, split_.test, partition_, devices_,
                             testing::paper_channel(), strategy, options);
    RunResult result;
    result.history = trainer.run();
    result.final_weights = nn::extract_parameters(model);
    return result;
  }

  /// Bitwise comparison of two training traces: every Metrics row field
  /// must match exactly (EXPECT_EQ on doubles is equality, not tolerance).
  static void expect_identical(const RunResult& a, const RunResult& b) {
    EXPECT_EQ(a.final_weights, b.final_weights);
    ASSERT_EQ(a.history.size(), b.history.size());
    for (std::size_t i = 0; i < a.history.size(); ++i) {
      const RoundRecord& ra = a.history.rounds()[i];
      const RoundRecord& rb = b.history.rounds()[i];
      EXPECT_EQ(ra.round, rb.round);
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

  static constexpr std::size_t kUsers = 10;
  data::TrainTestSplit split_;
  data::Partition partition_;
  std::vector<mec::Device> devices_;
};

TEST_F(ParallelTrainerTest, RandomSelectionIsThreadCountInvariant) {
  auto m1 = fresh_model();
  util::Rng rng1(70);
  sched::RandomSelection s1(0.4, rng1);
  const RunResult sequential = run(*m1, s1, options_with_threads(1));

  auto m8 = fresh_model();
  util::Rng rng8(70);
  sched::RandomSelection s8(0.4, rng8);
  const RunResult parallel = run(*m8, s8, options_with_threads(8));

  expect_identical(sequential, parallel);
}

TEST_F(ParallelTrainerTest, HelcflIsThreadCountInvariant) {
  auto m1 = fresh_model();
  core::HelcflScheduler s1({.fraction = 0.3, .eta = 0.9, .enable_dvfs = true});
  const RunResult sequential = run(*m1, s1, options_with_threads(1));

  auto m8 = fresh_model();
  core::HelcflScheduler s8({.fraction = 0.3, .eta = 0.9, .enable_dvfs = true});
  const RunResult parallel = run(*m8, s8, options_with_threads(8));

  expect_identical(sequential, parallel);
}

TEST_F(ParallelTrainerTest, FedCsIsThreadCountInvariant) {
  const auto users =
      sched::build_user_info(devices_, testing::paper_channel(), 4e6);
  const double deadline = sim::auto_fedcs_deadline({users}, 0.3);

  auto m1 = fresh_model();
  sched::FedCsSelection s1(deadline);
  const RunResult sequential = run(*m1, s1, options_with_threads(1));

  auto m8 = fresh_model();
  sched::FedCsSelection s8(deadline);
  const RunResult parallel = run(*m8, s8, options_with_threads(8));

  expect_identical(sequential, parallel);
}

TEST_F(ParallelTrainerTest, AutoThreadCountMatchesSequential) {
  auto m1 = fresh_model();
  util::Rng rng1(71);
  sched::RandomSelection s1(0.4, rng1);
  const RunResult sequential = run(*m1, s1, options_with_threads(1));

  auto mauto = fresh_model();
  util::Rng rng_auto(71);
  sched::RandomSelection sauto(0.4, rng_auto);
  const RunResult automatic = run(*mauto, sauto, options_with_threads(0));

  expect_identical(sequential, automatic);
}

TEST_F(ParallelTrainerTest, BatchNormStateIsThreadCountInvariant) {
  // BatchNorm running statistics are persistent non-FedAvg state; the
  // engine snapshots them at round start and restores them per client, so
  // even a stateful model is bitwise reproducible across worker counts.
  const auto make_bn_model = [this] {
    util::Rng rng(63);
    auto model = std::make_unique<nn::Sequential>();
    model->emplace<nn::Flatten>();
    model->emplace<nn::Dense>(split_.train.spec().flat_features(), 24, rng);
    model->emplace<nn::BatchNorm>(24);
    model->emplace<nn::ReLU>();
    model->emplace<nn::Dense>(24, 10, rng);
    return model;
  };

  auto m1 = make_bn_model();
  util::Rng rng1(72);
  sched::RandomSelection s1(0.4, rng1);
  const RunResult sequential = run(*m1, s1, options_with_threads(1));

  auto m8 = make_bn_model();
  util::Rng rng8(72);
  sched::RandomSelection s8(0.4, rng8);
  const RunResult parallel = run(*m8, s8, options_with_threads(8));

  expect_identical(sequential, parallel);
  EXPECT_EQ(nn::extract_state(*m1), nn::extract_state(*m8));
}

TEST_F(ParallelTrainerTest, ModelCloneIsDeepAndExact) {
  const auto model = fresh_model();
  nn::Sequential copy(*model);
  EXPECT_EQ(nn::extract_parameters(*model), nn::extract_parameters(copy));

  // Mutating the clone must not leak into the original.
  std::vector<float> perturbed = nn::extract_parameters(copy);
  for (float& w : perturbed) w += 1.0F;
  nn::load_parameters(copy, perturbed);
  EXPECT_NE(nn::extract_parameters(*model), nn::extract_parameters(copy));

  // Clones forward identically on the same input.
  nn::Sequential copy2(*model);
  const std::vector<std::size_t> indices{0, 1, 2, 3};
  const data::Batch batch = split_.test.gather(indices);
  const tensor::Tensor a = model->forward(batch.images, /*training=*/false);
  const tensor::Tensor b = copy2.forward(batch.images, /*training=*/false);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
}

TEST_F(ParallelTrainerTest, ParallelEvaluateMatchesSequential) {
  const auto model = fresh_model();
  const std::vector<float> weights = nn::extract_parameters(*model);
  EvalScratch scratch;
  const Evaluation sequential = evaluate(*model, weights, split_.test, 32, scratch);

  util::ThreadPool pool(3);
  std::vector<std::unique_ptr<nn::Sequential>> replicas;
  std::vector<nn::Sequential*> views;
  for (std::size_t i = 0; i < pool.worker_count(); ++i) {
    replicas.push_back(std::make_unique<nn::Sequential>(*model));
    views.push_back(replicas.back().get());
  }
  std::vector<EvalScratch> scratches(pool.worker_count());
  const Evaluation parallel =
      evaluate_parallel(views, scratches, weights, split_.test, 32, pool);
  EXPECT_EQ(sequential.loss, parallel.loss);
  EXPECT_EQ(sequential.accuracy, parallel.accuracy);
}

/// Counts the training forwards in flight across every replica of a model
/// and records the most seen at once.  Each call waits (up to a generous
/// timeout) until some call has seen a second one in flight, so a parallel
/// engine is caught overlapping however the host schedules its threads,
/// while a serial one would only ever see one.
struct OverlapLog {
  std::atomic<int> in_flight{0};
  std::atomic<int> peak{0};
};

class OverlapProbe : public nn::Layer {
 public:
  explicit OverlapProbe(std::shared_ptr<OverlapLog> log) : log_(std::move(log)) {}
  tensor::Tensor forward(const tensor::Tensor& input, bool training) override {
    if (!training) return input;
    const int now = ++log_->in_flight;
    int seen = log_->peak.load();
    while (now > seen && !log_->peak.compare_exchange_weak(seen, now)) {
    }
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (log_->peak.load() < 2 && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    --log_->in_flight;
    return input;
  }
  tensor::Tensor backward(const tensor::Tensor& grad_output) override {
    return grad_output;
  }
  std::unique_ptr<nn::Layer> clone() const override {
    return std::make_unique<OverlapProbe>(log_);
  }
  std::string name() const override { return "OverlapProbe"; }

 private:
  std::shared_ptr<OverlapLog> log_;
};

// What the wall-clock test below claims, proven on any host: with 8 client
// threads, at least two clients of a cohort train at the same time.
TEST_F(ParallelTrainerTest, CohortClientsTrainConcurrently) {
  auto log = std::make_shared<OverlapLog>();
  nn::Sequential model;
  model.emplace<OverlapProbe>(log);
  util::Rng model_rng(64);
  model.add(nn::make_small_cnn(split_.train.spec(), 10, model_rng));
  util::Rng rng(73);
  sched::RandomSelection strategy(0.8, rng);
  TrainerOptions options = options_with_threads(8);
  options.max_rounds = 1;
  run(model, strategy, options);
  EXPECT_GE(log->peak.load(), 2) << "no two client updates ever overlapped";
}

// Wall-clock speedup: only meaningful on an unshared host with a core per
// client thread, so ctest runs it only as the `perf`-labelled entry
// test_parallel_trainer_perf, and it skips on fewer than 8 hardware threads.
TEST_F(ParallelTrainerTest, EightThreadsAreMeasurablyFasterThanOne) {
  const unsigned cores = std::thread::hardware_concurrency();
  if (cores < 8) {
    GTEST_SKIP() << "speedup needs >= 8 hardware threads, have " << cores;
  }

  // A compute-heavy cohort: CNN forward/backward dominates, so the client
  // loop is where the time goes and Amdahl losses stay small.
  const auto timed_run = [this](std::size_t num_threads) {
    util::Rng model_rng(64);
    auto model = nn::make_small_cnn(split_.train.spec(), 10, model_rng);
    util::Rng rng(73);
    sched::RandomSelection strategy(0.8, rng);
    TrainerOptions options = options_with_threads(num_threads);
    options.max_rounds = 3;
    options.client.local_steps = 4;
    const auto begin = std::chrono::steady_clock::now();
    run(*model, strategy, options);
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - begin)
        .count();
  };

  timed_run(1);  // warm caches so the comparison is fair
  const double sequential_s = timed_run(1);
  const double parallel_s = timed_run(8);
  const double speedup = sequential_s / parallel_s;
  // The acceptance bar, with a core per client thread.
  EXPECT_GE(speedup, 2.0)
      << "sequential " << sequential_s << " s vs parallel " << parallel_s << " s";
}

}  // namespace
}  // namespace helcfl::fl

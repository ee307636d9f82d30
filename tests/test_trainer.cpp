#include "fl/trainer.h"

#include <gtest/gtest.h>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "core/helcfl_scheduler.h"
#include "fl/async_trainer.h"
#include "fl_fixtures.h"
#include "nn/models.h"
#include "nn/serialize.h"
#include "sched/random_selection.h"
#include "sim/config.h"
#include "sim/fleet.h"

namespace helcfl::fl {
namespace {

class TrainerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    split_ = testing::tiny_split(400, 100, 50);
    util::Rng prng(51);
    partition_ = data::iid_partition(split_.train.size(), kUsers, prng);
    std::vector<std::size_t> samples;
    for (const auto& s : partition_) samples.push_back(s.size());
    devices_ = testing::linear_fleet(kUsers, samples[0]);
    for (std::size_t i = 0; i < kUsers; ++i) devices_[i].num_samples = samples[i];
    util::Rng model_rng(52);
    model_ = nn::make_mlp(split_.train.spec(), 16, 10, model_rng);
  }

  TrainerOptions quick_options() {
    TrainerOptions options;
    options.max_rounds = 10;
    options.client.learning_rate = 0.1F;
    options.model_size_bits = 4e6;
    return options;
  }

  static constexpr std::size_t kUsers = 10;
  data::TrainTestSplit split_;
  data::Partition partition_;
  std::vector<mec::Device> devices_;
  std::unique_ptr<nn::Sequential> model_;
};

TEST_F(TrainerTest, RunsRequestedRounds) {
  util::Rng rng(1);
  sched::RandomSelection strategy(0.3, rng);
  FederatedTrainer trainer(*model_, split_.train, split_.test, partition_, devices_,
                           testing::paper_channel(), strategy, quick_options());
  const TrainingHistory history = trainer.run();
  EXPECT_EQ(history.size(), 10u);
  for (std::size_t i = 0; i < history.size(); ++i) {
    EXPECT_EQ(history.rounds()[i].round, i);
  }
}

TEST_F(TrainerTest, AccuracyImprovesOverTraining) {
  util::Rng rng(2);
  sched::RandomSelection strategy(0.5, rng);
  TrainerOptions options = quick_options();
  options.max_rounds = 40;
  FederatedTrainer trainer(*model_, split_.train, split_.test, partition_, devices_,
                           testing::paper_channel(), strategy, options);
  const TrainingHistory history = trainer.run();
  EXPECT_GT(history.best_accuracy(), 0.3);  // chance = 0.1
  EXPECT_GT(history.back().test_accuracy, history.rounds().front().test_accuracy);
}

TEST_F(TrainerTest, CumulativeDelayAndEnergyAreMonotone) {
  util::Rng rng(3);
  sched::RandomSelection strategy(0.3, rng);
  FederatedTrainer trainer(*model_, split_.train, split_.test, partition_, devices_,
                           testing::paper_channel(), strategy, quick_options());
  const TrainingHistory history = trainer.run();
  double prev_delay = 0.0;
  double prev_energy = 0.0;
  for (const auto& r : history.rounds()) {
    EXPECT_GT(r.round_delay_s, 0.0);
    EXPECT_GT(r.round_energy_j, 0.0);
    EXPECT_NEAR(r.cum_delay_s, prev_delay + r.round_delay_s, 1e-9);
    EXPECT_NEAR(r.cum_energy_j, prev_energy + r.round_energy_j, 1e-9);
    prev_delay = r.cum_delay_s;
    prev_energy = r.cum_energy_j;
  }
}

TEST_F(TrainerTest, DeadlineStopsTraining) {
  util::Rng rng(4);
  sched::RandomSelection strategy(0.3, rng);
  TrainerOptions options = quick_options();
  options.max_rounds = 1000;
  options.deadline_s = 30.0;  // a few rounds at most
  FederatedTrainer trainer(*model_, split_.train, split_.test, partition_, devices_,
                           testing::paper_channel(), strategy, options);
  const TrainingHistory history = trainer.run();
  EXPECT_LT(history.size(), 1000u);
  EXPECT_GT(history.total_delay_s(), 30.0);  // crossed the deadline, then stopped
  // All rounds before the last are within the deadline.
  for (std::size_t i = 0; i + 1 < history.size(); ++i) {
    EXPECT_LE(history.rounds()[i].cum_delay_s, 30.0);
  }
}

TEST_F(TrainerTest, TargetAccuracyStopsEarly) {
  util::Rng rng(5);
  sched::RandomSelection strategy(0.5, rng);
  TrainerOptions options = quick_options();
  options.max_rounds = 200;
  options.target_accuracy = 0.25;
  FederatedTrainer trainer(*model_, split_.train, split_.test, partition_, devices_,
                           testing::paper_channel(), strategy, options);
  const TrainingHistory history = trainer.run();
  EXPECT_LT(history.size(), 200u);
  EXPECT_GE(history.back().test_accuracy, 0.25);
}

TEST_F(TrainerTest, EvalEverySkipsEvaluations) {
  util::Rng rng(6);
  sched::RandomSelection strategy(0.3, rng);
  TrainerOptions options = quick_options();
  options.eval_every = 3;
  FederatedTrainer trainer(*model_, split_.train, split_.test, partition_, devices_,
                           testing::paper_channel(), strategy, options);
  const TrainingHistory history = trainer.run();
  for (const auto& r : history.rounds()) {
    const bool expected = r.round % 3 == 0 || r.round == 9;
    EXPECT_EQ(r.evaluated, expected) << "round " << r.round;
  }
}

TEST_F(TrainerTest, DeterministicAcrossRuns) {
  TrainerOptions options = quick_options();
  const std::vector<float> init = nn::extract_parameters(*model_);

  util::Rng rng1(7);
  sched::RandomSelection s1(0.3, rng1);
  FederatedTrainer t1(*model_, split_.train, split_.test, partition_, devices_,
                      testing::paper_channel(), s1, options);
  const TrainingHistory h1 = t1.run();
  const std::vector<float> w1 = nn::extract_parameters(*model_);

  nn::load_parameters(*model_, init);
  util::Rng rng2(7);
  sched::RandomSelection s2(0.3, rng2);
  FederatedTrainer t2(*model_, split_.train, split_.test, partition_, devices_,
                      testing::paper_channel(), s2, options);
  const TrainingHistory h2 = t2.run();
  const std::vector<float> w2 = nn::extract_parameters(*model_);

  EXPECT_EQ(w1, w2);
  ASSERT_EQ(h1.size(), h2.size());
  for (std::size_t i = 0; i < h1.size(); ++i) {
    EXPECT_EQ(h1.rounds()[i].selected, h2.rounds()[i].selected);
    EXPECT_DOUBLE_EQ(h1.rounds()[i].cum_delay_s, h2.rounds()[i].cum_delay_s);
  }
}

TEST_F(TrainerTest, SelectedSetRespectsFraction) {
  util::Rng rng(8);
  sched::RandomSelection strategy(0.3, rng);
  FederatedTrainer trainer(*model_, split_.train, split_.test, partition_, devices_,
                           testing::paper_channel(), strategy, quick_options());
  const TrainingHistory history = trainer.run();
  for (const auto& r : history.rounds()) {
    EXPECT_EQ(r.selected.size(), 3u);  // 10 users * 0.3
  }
}

TEST_F(TrainerTest, RejectsDeviceSampleMismatch) {
  devices_[0].num_samples += 1;
  util::Rng rng(9);
  sched::RandomSelection strategy(0.3, rng);
  EXPECT_THROW(FederatedTrainer(*model_, split_.train, split_.test, partition_,
                                devices_, testing::paper_channel(), strategy,
                                quick_options()),
               std::invalid_argument);
}

TEST_F(TrainerTest, RejectsPartitionSizeMismatch) {
  partition_.pop_back();
  util::Rng rng(10);
  sched::RandomSelection strategy(0.3, rng);
  EXPECT_THROW(FederatedTrainer(*model_, split_.train, split_.test, partition_,
                                devices_, testing::paper_channel(), strategy,
                                quick_options()),
               std::invalid_argument);
}

TEST_F(TrainerTest, HelcflStrategyKeepsDelayEqualToNoDvfs) {
  // Algorithm 3 must not lengthen rounds: with the same selection sequence,
  // the DVFS and no-DVFS arms have identical round delays but DVFS costs
  // less energy.
  const std::vector<float> init = nn::extract_parameters(*model_);
  TrainerOptions options = quick_options();

  core::HelcflScheduler dvfs({.fraction = 0.3, .eta = 0.9, .enable_dvfs = true});
  FederatedTrainer t1(*model_, split_.train, split_.test, partition_, devices_,
                      testing::paper_channel(), dvfs, options);
  const TrainingHistory with_dvfs = t1.run();

  nn::load_parameters(*model_, init);
  core::HelcflScheduler nodvfs({.fraction = 0.3, .eta = 0.9, .enable_dvfs = false});
  FederatedTrainer t2(*model_, split_.train, split_.test, partition_, devices_,
                      testing::paper_channel(), nodvfs, options);
  const TrainingHistory without_dvfs = t2.run();

  ASSERT_EQ(with_dvfs.size(), without_dvfs.size());
  for (std::size_t i = 0; i < with_dvfs.size(); ++i) {
    EXPECT_EQ(with_dvfs.rounds()[i].selected, without_dvfs.rounds()[i].selected);
    EXPECT_NEAR(with_dvfs.rounds()[i].round_delay_s,
                without_dvfs.rounds()[i].round_delay_s, 1e-9);
    EXPECT_LE(with_dvfs.rounds()[i].round_energy_j,
              without_dvfs.rounds()[i].round_energy_j + 1e-12);
  }
  EXPECT_LT(with_dvfs.total_energy_j(), without_dvfs.total_energy_j());
}

TEST(Trainer, ConstructionDoesNotCopyTheTrainingSet) {
#if defined(__GLIBC__)
  // The paper config's workload: both engines must train from the borrowed
  // training set, holding no copy of its images.
  const sim::ExperimentConfig config = sim::paper_config();
  util::Rng rng(70);
  const data::TrainTestSplit split = data::make_synthetic_cifar(config.dataset, rng);
  const data::Partition partition = data::shard_noniid_partition(
      split.train.labels(), config.n_users, config.shards_per_user, rng);
  std::vector<std::size_t> samples;
  for (const auto& slice : partition) samples.push_back(slice.size());
  const std::vector<mec::Device> devices = sim::make_fleet(config, samples, rng);
  const mec::Channel channel = sim::make_channel(config);
  auto model = nn::make_model(config.model, split.train.spec(), 10, rng);
  sched::RandomSelection strategy(config.fraction, rng);
  const std::size_t image_bytes = split.train.images().size() * sizeof(float);

  const std::size_t before = mallinfo2().uordblks;
  const FederatedTrainer sync(*model, split.train, split.test, partition, devices,
                              channel, strategy, config.trainer);
  const AsyncTrainer async(*model, split.train, split.test, partition, devices, channel,
                           strategy, config.trainer, AsyncOptions{});
  const std::size_t after = mallinfo2().uordblks;
  EXPECT_LT(after - before, image_bytes / 8)
      << "constructing both engines took " << after - before << " bytes against "
      << image_bytes << " bytes of training images";
#else
  GTEST_SKIP() << "needs glibc's mallinfo2";
#endif
}

}  // namespace
}  // namespace helcfl::fl

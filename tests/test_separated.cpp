#include "fl/separated.h"

#include <gtest/gtest.h>

#include <limits>

#include "fl_fixtures.h"
#include "nn/models.h"
#include "nn/serialize.h"
#include "util/rng.h"

namespace helcfl::fl {
namespace {

class SeparatedTest : public ::testing::Test {
 protected:
  void SetUp() override {
    split_ = testing::tiny_split(200, 80, 60);
    util::Rng prng(61);
    partition_ = data::iid_partition(split_.train.size(), kUsers, prng);
    devices_ = testing::linear_fleet(kUsers, 200 / kUsers);
    util::Rng model_rng(62);
    model_ = nn::make_mlp(split_.train.spec(), 12, 10, model_rng);
  }

  SeparatedOptions quick_options() {
    SeparatedOptions options;
    options.max_rounds = 6;
    options.eval_every = 2;
    options.client.learning_rate = 0.1F;
    return options;
  }

  static constexpr std::size_t kUsers = 5;
  data::TrainTestSplit split_;
  data::Partition partition_;
  std::vector<mec::Device> devices_;
  std::unique_ptr<nn::Sequential> model_;
};

TEST_F(SeparatedTest, RunsAllRounds) {
  const TrainingHistory history = train_separated(*model_, split_.train, split_.test,
                                                  partition_, devices_, quick_options());
  EXPECT_EQ(history.size(), 6u);
}

TEST_F(SeparatedTest, EvaluatesOnConfiguredCadence) {
  const TrainingHistory history = train_separated(*model_, split_.train, split_.test,
                                                  partition_, devices_, quick_options());
  for (const auto& r : history.rounds()) {
    const bool expected = r.round % 2 == 0 || r.round == 5;
    EXPECT_EQ(r.evaluated, expected);
  }
}

TEST_F(SeparatedTest, NoUploadsMeansComputeOnlyDelay) {
  const TrainingHistory history = train_separated(*model_, split_.train, split_.test,
                                                  partition_, devices_, quick_options());
  // Round delay equals the slowest device's compute time at f_max.
  double slowest = 0.0;
  for (const auto& d : devices_) {
    slowest = std::max(slowest, d.total_cycles() / d.f_max_hz);
  }
  for (const auto& r : history.rounds()) {
    EXPECT_NEAR(r.round_delay_s, slowest, 1e-9);
  }
}

TEST_F(SeparatedTest, EnergyIsSumOfComputeEnergies) {
  const TrainingHistory history = train_separated(*model_, split_.train, split_.test,
                                                  partition_, devices_, quick_options());
  double expected = 0.0;
  for (const auto& d : devices_) {
    expected += d.switched_capacitance / 2.0 * d.total_cycles() * d.f_max_hz *
                d.f_max_hz;
  }
  EXPECT_NEAR(history.rounds()[0].round_energy_j, expected, 1e-12);
}

TEST_F(SeparatedTest, LearnsAboveChanceButBelowFederated) {
  SeparatedOptions options = quick_options();
  options.max_rounds = 60;
  options.eval_every = 20;
  options.client.local_steps = 3;
  const TrainingHistory history = train_separated(*model_, split_.train, split_.test,
                                                  partition_, devices_, options);
  const double accuracy = history.best_accuracy();
  EXPECT_GT(accuracy, 0.12);  // above chance
  EXPECT_LT(accuracy, 0.70);  // far below what FL reaches on this task
}

TEST_F(SeparatedTest, EvalUserSampleRestrictsEvaluation) {
  SeparatedOptions options = quick_options();
  options.eval_user_sample = 2;
  const TrainingHistory history = train_separated(*model_, split_.train, split_.test,
                                                  partition_, devices_, options);
  EXPECT_TRUE(history.rounds()[0].evaluated);
  EXPECT_GT(history.rounds()[0].test_accuracy, 0.0);
}

TEST_F(SeparatedTest, DeterministicGivenSeed) {
  // train_separated seeds every user from the weights currently loaded in
  // the scratch model, so restore them between runs.
  const std::vector<float> init = nn::extract_parameters(*model_);
  const TrainingHistory a = train_separated(*model_, split_.train, split_.test,
                                            partition_, devices_, quick_options());
  nn::load_parameters(*model_, init);
  const TrainingHistory b = train_separated(*model_, split_.train, split_.test,
                                            partition_, devices_, quick_options());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.rounds()[i].test_accuracy, b.rounds()[i].test_accuracy);
  }
}

TEST_F(SeparatedTest, RejectsSizeMismatch) {
  devices_.pop_back();
  EXPECT_THROW(train_separated(*model_, split_.train, split_.test, partition_,
                               devices_, quick_options()),
               std::invalid_argument);
}

TEST_F(SeparatedTest, RejectsNanLearningRate) {
  SeparatedOptions options = quick_options();
  options.client.learning_rate = std::numeric_limits<float>::quiet_NaN();
  EXPECT_THROW(train_separated(*model_, split_.train, split_.test, partition_, devices_,
                               options),
               std::invalid_argument);
}

}  // namespace
}  // namespace helcfl::fl

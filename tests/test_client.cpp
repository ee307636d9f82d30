#include "fl/client.h"

#include <gtest/gtest.h>

#include <limits>

#include "fl/options.h"
#include "fl_fixtures.h"
#include "nn/loss.h"
#include "nn/models.h"
#include "nn/serialize.h"

namespace helcfl::fl {
namespace {

class ClientTest : public ::testing::Test {
 protected:
  void SetUp() override {
    split_ = testing::tiny_split();
    util::Rng model_rng(1);
    model_ = nn::make_mlp(split_.train.spec(), 16, 10, model_rng);
    global_ = nn::extract_parameters(*model_);
    for (std::size_t i = 0; i < 60; ++i) indices_.push_back(i);
    local_ = split_.train.gather(indices_);
  }

  data::TrainTestSplit split_;
  std::unique_ptr<nn::Sequential> model_;
  std::vector<float> global_;
  std::vector<std::size_t> indices_;
  data::Batch local_;
  data::Batch scratch_;
};

TEST_F(ClientTest, ReturnsUpdatedWeightsOfRightSize) {
  util::Rng rng(2);
  const ClientUpdate update =
      local_update(*model_, global_, split_.train, indices_, {}, rng, scratch_);
  EXPECT_EQ(update.weights.size(), global_.size());
  EXPECT_EQ(update.num_samples, 60u);
}

TEST_F(ClientTest, WeightsActuallyChange) {
  util::Rng rng(3);
  const ClientUpdate update =
      local_update(*model_, global_, split_.train, indices_, {.learning_rate = 0.1F}, rng,
                   scratch_);
  std::size_t changed = 0;
  for (std::size_t i = 0; i < global_.size(); ++i) {
    if (update.weights[i] != global_[i]) ++changed;
  }
  EXPECT_GT(changed, global_.size() / 2);
}

TEST_F(ClientTest, SingleFullBatchStepMatchesManualGd) {
  // Eq. (3): the client's one-step full-batch update must equal
  // w - lr * dL/dw computed by hand.
  const float lr = 0.05F;
  util::Rng rng(4);
  const ClientUpdate update = local_update(
      *model_, global_, split_.train, indices_, {.learning_rate = lr, .local_steps = 1},
      rng, scratch_);

  nn::load_parameters(*model_, global_);
  model_->zero_grad();
  const auto logits = model_->forward(local_.images, true);
  const auto loss = nn::softmax_cross_entropy(logits, local_.labels);
  model_->backward(loss.grad_logits);
  const std::vector<float> grads = nn::extract_gradients(*model_);

  for (std::size_t i = 0; i < global_.size(); ++i) {
    EXPECT_NEAR(update.weights[i], global_[i] - lr * grads[i], 1e-6F);
  }
}

TEST_F(ClientTest, TrainLossIsPreStepLoss) {
  util::Rng rng(5);
  const ClientUpdate update =
      local_update(*model_, global_, split_.train, indices_, {}, rng, scratch_);

  nn::load_parameters(*model_, global_);
  const auto logits = model_->forward(local_.images, false);
  const auto loss = nn::softmax_cross_entropy(logits, local_.labels);
  EXPECT_NEAR(update.train_loss, loss.loss, 1e-9);
}

TEST_F(ClientTest, MoreStepsReduceLocalLossFurther) {
  util::Rng rng1(6);
  util::Rng rng2(6);
  const ClientUpdate one = local_update(
      *model_, global_, split_.train, indices_,
      {.learning_rate = 0.05F, .local_steps = 1}, rng1, scratch_);
  const ClientUpdate ten = local_update(
      *model_, global_, split_.train, indices_,
      {.learning_rate = 0.05F, .local_steps = 10}, rng2, scratch_);

  auto loss_with = [&](const std::vector<float>& w) {
    nn::load_parameters(*model_, w);
    const auto logits = model_->forward(local_.images, false);
    return nn::softmax_cross_entropy(logits, local_.labels).loss;
  };
  EXPECT_LT(loss_with(ten.weights), loss_with(one.weights));
}

TEST_F(ClientTest, MiniBatchStepsAreDeterministicGivenRng) {
  util::Rng rng1(7);
  util::Rng rng2(7);
  const ClientOptions options{.learning_rate = 0.05F, .local_steps = 3,
                              .batch_size = 16};
  const ClientUpdate a =
      local_update(*model_, global_, split_.train, indices_, options, rng1, scratch_);
  const ClientUpdate b =
      local_update(*model_, global_, split_.train, indices_, options, rng2, scratch_);
  EXPECT_EQ(a.weights, b.weights);
}

TEST_F(ClientTest, BatchSizeLargerThanDataFallsBackToFullBatch) {
  util::Rng rng1(8);
  util::Rng rng2(9);  // different RNG must not matter for full batch
  const ClientOptions big{.learning_rate = 0.05F, .local_steps = 1,
                          .batch_size = 10000};
  const ClientOptions full{.learning_rate = 0.05F, .local_steps = 1, .batch_size = 0};
  const ClientUpdate a =
      local_update(*model_, global_, split_.train, indices_, big, rng1, scratch_);
  const ClientUpdate b =
      local_update(*model_, global_, split_.train, indices_, full, rng2, scratch_);
  EXPECT_EQ(a.weights, b.weights);
}

TEST_F(ClientTest, RejectsEmptyLocalData) {
  util::Rng rng(10);
  const std::vector<std::size_t> empty;
  EXPECT_THROW(local_update(*model_, global_, split_.train, empty, {}, rng, scratch_),
               std::invalid_argument);
}

TEST_F(ClientTest, RejectsZeroSteps) {
  util::Rng rng(11);
  EXPECT_THROW(local_update(*model_, global_, split_.train, indices_, {.local_steps = 0},
                            rng, scratch_),
               std::invalid_argument);
}

TEST_F(ClientTest, GlobalWeightsAreNotMutated) {
  util::Rng rng(12);
  const std::vector<float> saved = global_;
  (void)local_update(*model_, global_, split_.train, indices_, {.learning_rate = 0.5F},
                     rng, scratch_);
  EXPECT_EQ(global_, saved);
}

TEST(ClientOptions, ValidateRejectsNonFiniteOrNegativeLearningRate) {
  for (const float lr : {std::numeric_limits<float>::quiet_NaN(),
                         std::numeric_limits<float>::infinity(), -1.0F}) {
    SCOPED_TRACE(lr);
    const ClientOptions options{.learning_rate = lr};
    EXPECT_THROW(options.validate(), std::invalid_argument);
    TrainerOptions trainer;
    trainer.client = options;
    EXPECT_THROW(trainer.validate(10), std::invalid_argument);
  }
  // 0 freezes the model, which some tests rely on.
  EXPECT_NO_THROW(ClientOptions{.learning_rate = 0.0F}.validate());
}

TEST(ClientOptions, ValidateRejectsMomentumOutsideZeroToOne) {
  for (const float momentum : {std::numeric_limits<float>::quiet_NaN(), 1.0F, -0.1F}) {
    SCOPED_TRACE(momentum);
    const ClientOptions options{.momentum = momentum};
    EXPECT_THROW(options.validate(), std::invalid_argument);
    TrainerOptions trainer;
    trainer.client = options;
    EXPECT_THROW(trainer.validate(10), std::invalid_argument);
  }
  for (const float momentum : {0.0F, 0.9F}) {
    EXPECT_NO_THROW(ClientOptions{.momentum = momentum}.validate());
  }
}

}  // namespace
}  // namespace helcfl::fl

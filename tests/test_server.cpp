#include "fl/server.h"

#include <gtest/gtest.h>

#include "fl/client.h"
#include "fl_fixtures.h"
#include "nn/loss.h"
#include "nn/models.h"
#include "nn/optimizer.h"
#include "nn/serialize.h"

namespace helcfl::fl {
namespace {

TEST(FedAvg, SingleUploadIsIdentity) {
  const std::vector<float> w = {1.0F, 2.0F, 3.0F};
  const WeightedModel upload{w, 10};
  const std::vector<float> avg = fedavg(std::vector<WeightedModel>{upload});
  EXPECT_EQ(avg, w);
}

TEST(FedAvg, EqualWeightsAverage) {
  const std::vector<float> a = {0.0F, 2.0F};
  const std::vector<float> b = {4.0F, 0.0F};
  const std::vector<WeightedModel> uploads = {{a, 5}, {b, 5}};
  const std::vector<float> avg = fedavg(uploads);
  EXPECT_FLOAT_EQ(avg[0], 2.0F);
  EXPECT_FLOAT_EQ(avg[1], 1.0F);
}

TEST(FedAvg, SampleCountWeighting) {
  // Eq. (18): weights proportional to |D_q|.
  const std::vector<float> a = {0.0F};
  const std::vector<float> b = {10.0F};
  const std::vector<WeightedModel> uploads = {{a, 1}, {b, 3}};
  const std::vector<float> avg = fedavg(uploads);
  EXPECT_FLOAT_EQ(avg[0], 7.5F);
}

TEST(FedAvg, ZeroWeightUploadIsIgnored) {
  const std::vector<float> a = {2.0F};
  const std::vector<float> b = {100.0F};
  const std::vector<WeightedModel> uploads = {{a, 4}, {b, 0}};
  const std::vector<float> avg = fedavg(uploads);
  EXPECT_FLOAT_EQ(avg[0], 2.0F);
}

TEST(FedAvg, RejectsEmptyUploadList) {
  EXPECT_THROW(fedavg({}), std::invalid_argument);
}

TEST(FedAvg, RejectsDimensionMismatch) {
  const std::vector<float> a = {1.0F};
  const std::vector<float> b = {1.0F, 2.0F};
  const std::vector<WeightedModel> uploads = {{a, 1}, {b, 1}};
  EXPECT_THROW(fedavg(uploads), std::invalid_argument);
}

TEST(FedAvg, RejectsAllZeroSampleCounts) {
  const std::vector<float> a = {1.0F};
  const std::vector<WeightedModel> uploads = {{a, 0}};
  EXPECT_THROW(fedavg(uploads), std::invalid_argument);
}

TEST(FedAvg, Eq19EquivalenceToCentralizedGd) {
  // The paper's Eq. (19): FedAvg over clients that each took ONE full-batch
  // GD step from the same global model equals one centralized GD step on
  // the union of their data.  This is the theoretical foundation of the
  // HELCFL utility function; verify it numerically.
  const auto split = testing::tiny_split(300, 50, 200);
  util::Rng model_rng(1);
  auto model = nn::make_mlp(split.train.spec(), 12, 10, model_rng);
  const std::vector<float> global = nn::extract_parameters(*model);
  const float lr = 0.1F;

  // Three clients with different (and differently sized) slices.
  std::vector<std::vector<std::size_t>> slices = {{}, {}, {}};
  for (std::size_t i = 0; i < 300; ++i) slices[i % 2 == 0 ? 0 : (i % 3 == 0 ? 1 : 2)].push_back(i);

  std::vector<ClientUpdate> updates;
  std::vector<std::size_t> all_indices;
  for (const auto& slice : slices) {
    util::Rng rng(3);
    updates.push_back(local_update(*model, global, split.train.gather(slice),
                                   {.learning_rate = lr, .local_steps = 1}, rng));
    all_indices.insert(all_indices.end(), slice.begin(), slice.end());
  }
  std::vector<WeightedModel> uploads;
  for (const auto& u : updates) uploads.push_back({u.weights, u.num_samples});
  const std::vector<float> aggregated = fedavg(uploads);

  // Centralized GD step on the union.
  util::Rng rng(4);
  const ClientUpdate central =
      local_update(*model, global, split.train.gather(all_indices),
                   {.learning_rate = lr, .local_steps = 1}, rng);

  for (std::size_t i = 0; i < aggregated.size(); ++i) {
    EXPECT_NEAR(aggregated[i], central.weights[i], 2e-4F) << "weight " << i;
  }
}

TEST(Evaluate, PerfectModelScoresOne) {
  const auto split = testing::tiny_split(100, 50, 300);
  util::Rng model_rng(5);
  auto model = nn::make_logistic(split.train.spec(), 10, model_rng);
  // Train to convergence on the test set itself (cheating on purpose) to
  // verify evaluate() reports high accuracy for a fitted model.
  const data::Batch test = split.test.all();
  nn::Sgd sgd({.learning_rate = 0.1F});
  for (int step = 0; step < 300; ++step) {
    model->zero_grad();
    const auto logits = model->forward(test.images, true);
    const auto loss = nn::softmax_cross_entropy(logits, test.labels);
    model->backward(loss.grad_logits);
    sgd.step(model->params());
  }
  const Evaluation eval = evaluate(*model, nn::extract_parameters(*model),
                                   make_eval_plan(split.test, 256));
  EXPECT_GT(eval.accuracy, 0.9);
  EXPECT_LT(eval.loss, 1.0);
}

TEST(Evaluate, BatchSizeDoesNotChangeResult) {
  const auto split = testing::tiny_split(50, 130, 400);
  util::Rng model_rng(6);
  auto model = nn::make_mlp(split.train.spec(), 8, 10, model_rng);
  const auto weights = nn::extract_parameters(*model);
  const Evaluation small = evaluate(*model, weights, make_eval_plan(split.test, 7));
  const Evaluation large = evaluate(*model, weights, make_eval_plan(split.test, 1000));
  EXPECT_NEAR(small.accuracy, large.accuracy, 1e-12);
  EXPECT_NEAR(small.loss, large.loss, 1e-9);
}

TEST(Evaluate, RejectsEmptyDataset) {
  util::Rng model_rng(7);
  const nn::ImageSpec spec{1, 2, 2};
  auto model = nn::make_logistic(spec, 3, model_rng);
  data::Dataset empty;
  EXPECT_THROW(evaluate(*model, nn::extract_parameters(*model),
                        make_eval_plan(empty, 256)),
               std::invalid_argument);
}

}  // namespace
}  // namespace helcfl::fl

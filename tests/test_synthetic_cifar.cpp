#include "data/synthetic_cifar.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>

#include "nn/loss.h"
#include "nn/models.h"
#include "nn/optimizer.h"
#include "oracles/reference_synthetic_cifar.h"
#include "util/rng.h"

namespace helcfl::data {
namespace {

TEST(SyntheticCifar, ProducesRequestedCounts) {
  SyntheticCifarOptions options;
  options.train_samples = 500;
  options.test_samples = 100;
  util::Rng rng(1);
  const TrainTestSplit split = make_synthetic_cifar(options, rng);
  EXPECT_EQ(split.train.size(), 500u);
  EXPECT_EQ(split.test.size(), 100u);
  EXPECT_EQ(split.train.num_classes(), 10u);
}

TEST(SyntheticCifar, ImageGeometryMatchesOptions) {
  SyntheticCifarOptions options;
  options.channels = 2;
  options.height = 5;
  options.width = 7;
  options.train_samples = 10;
  options.test_samples = 5;
  util::Rng rng(2);
  const TrainTestSplit split = make_synthetic_cifar(options, rng);
  const nn::ImageSpec spec = split.train.spec();
  EXPECT_EQ(spec.channels, 2u);
  EXPECT_EQ(spec.height, 5u);
  EXPECT_EQ(spec.width, 7u);
}

TEST(SyntheticCifar, DeterministicGivenSeed) {
  SyntheticCifarOptions options;
  options.train_samples = 50;
  options.test_samples = 10;
  util::Rng rng_a(3);
  util::Rng rng_b(3);
  const TrainTestSplit a = make_synthetic_cifar(options, rng_a);
  const TrainTestSplit b = make_synthetic_cifar(options, rng_b);
  for (std::size_t i = 0; i < a.train.images().size(); ++i) {
    EXPECT_EQ(a.train.images()[i], b.train.images()[i]);
  }
  EXPECT_TRUE(std::equal(a.train.labels().begin(), a.train.labels().end(),
                         b.train.labels().begin()));
}

TEST(SyntheticCifar, DifferentSeedsDiffer) {
  SyntheticCifarOptions options;
  options.train_samples = 50;
  options.test_samples = 10;
  util::Rng rng_a(4);
  util::Rng rng_b(5);
  const TrainTestSplit a = make_synthetic_cifar(options, rng_a);
  const TrainTestSplit b = make_synthetic_cifar(options, rng_b);
  std::size_t differing = 0;
  for (std::size_t i = 0; i < a.train.images().size(); ++i) {
    if (a.train.images()[i] != b.train.images()[i]) ++differing;
  }
  EXPECT_GT(differing, a.train.images().size() / 2);
}

TEST(SyntheticCifar, AllClassesPresent) {
  SyntheticCifarOptions options;
  options.train_samples = 1000;
  options.test_samples = 10;
  util::Rng rng(6);
  const TrainTestSplit split = make_synthetic_cifar(options, rng);
  for (const std::size_t count : split.train.class_histogram()) {
    EXPECT_GT(count, 50u);  // roughly balanced draws
  }
}

TEST(SyntheticCifar, PixelsAreFinite) {
  SyntheticCifarOptions options;
  options.train_samples = 100;
  options.test_samples = 10;
  util::Rng rng(7);
  const TrainTestSplit split = make_synthetic_cifar(options, rng);
  for (std::size_t i = 0; i < split.train.images().size(); ++i) {
    EXPECT_TRUE(std::isfinite(split.train.images()[i]));
  }
}

TEST(SyntheticCifar, RejectsZeroDimensions) {
  SyntheticCifarOptions options;
  options.channels = 0;
  util::Rng rng(8);
  EXPECT_THROW(make_synthetic_cifar(options, rng), std::invalid_argument);
}

// Every image float bit for bit, every label, and the geometry.
void expect_same_dataset(const Dataset& actual, const Dataset& expected) {
  ASSERT_EQ(actual.images().shape(), expected.images().shape());
  std::size_t mismatched = 0;
  for (std::size_t i = 0; i < expected.images().size(); ++i) {
    if (std::bit_cast<std::uint32_t>(actual.images()[i]) !=
        std::bit_cast<std::uint32_t>(expected.images()[i])) {
      ++mismatched;
    }
  }
  EXPECT_EQ(mismatched, 0u) << "of " << expected.images().size() << " floats";
  EXPECT_TRUE(std::equal(actual.labels().begin(), actual.labels().end(),
                         expected.labels().begin(), expected.labels().end()));
  EXPECT_EQ(actual.num_classes(), expected.num_classes());
}

TEST(SyntheticCifar, MatchesPerPixelFieldOracleBitwise) {
  SyntheticCifarOptions defaults;
  SyntheticCifarOptions non_square;
  non_square.channels = 2;
  non_square.height = 5;
  non_square.width = 7;
  SyntheticCifarOptions one_channel;
  one_channel.channels = 1;
  SyntheticCifarOptions wide_shift;  // shifts wrap more than once
  wide_shift.max_shift = 11;
  SyntheticCifarOptions clean_labels;
  clean_labels.label_noise = 0.0F;
  const SyntheticCifarOptions cases[] = {defaults, non_square, one_channel, wide_shift,
                                         clean_labels};

  std::uint64_t seed = 21;
  for (SyntheticCifarOptions options : cases) {
    SCOPED_TRACE(::testing::Message()
                 << options.channels << "x" << options.height << "x" << options.width
                 << " max_shift=" << options.max_shift
                 << " label_noise=" << options.label_noise);
    options.train_samples = 300;
    options.test_samples = 70;
    util::Rng rng(seed);
    util::Rng reference_rng(seed++);
    const TrainTestSplit actual = make_synthetic_cifar(options, rng);
    const TrainTestSplit expected = reference_synthetic_cifar(options, reference_rng);
    expect_same_dataset(actual.train, expected.train);
    expect_same_dataset(actual.test, expected.test);
    EXPECT_TRUE(rng.state() == reference_rng.state());
  }
}

// An invalid option throws naming its field, before any draw.
void expect_rejected(const SyntheticCifarOptions& options, const char* field) {
  util::Rng rng(13);
  const util::Rng::State before = rng.state();
  try {
    (void)make_synthetic_cifar(options, rng);
    ADD_FAILURE() << field << " was accepted";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find(field), std::string::npos) << error.what();
  }
  EXPECT_TRUE(rng.state() == before);
}

TEST(SyntheticCifar, RejectsBadNoiseStddev) {
  for (const float bad : {-0.5F, std::numeric_limits<float>::infinity(),
                          std::numeric_limits<float>::quiet_NaN()}) {
    SyntheticCifarOptions options;
    options.noise_stddev = bad;
    expect_rejected(options, "noise_stddev");
  }
}

TEST(SyntheticCifar, RejectsLabelNoiseOutsideUnitInterval) {
  for (const float bad : {-0.01F, 1.01F, std::numeric_limits<float>::quiet_NaN()}) {
    SyntheticCifarOptions options;
    options.label_noise = bad;
    expect_rejected(options, "label_noise");
  }
}

TEST(SyntheticCifar, RejectsNonFinitePrototypeScale) {
  for (const float bad : {std::numeric_limits<float>::infinity(),
                          -std::numeric_limits<float>::infinity(),
                          std::numeric_limits<float>::quiet_NaN()}) {
    SyntheticCifarOptions options;
    options.prototype_scale = bad;
    expect_rejected(options, "prototype_scale");
  }
}

TEST(SyntheticCifar, AcceptsBoundaryOptions) {
  SyntheticCifarOptions options;
  options.train_samples = 20;
  options.test_samples = 5;
  options.noise_stddev = 0.0F;
  options.label_noise = 1.0F;
  options.prototype_scale = -2.0F;
  util::Rng rng(14);
  EXPECT_NO_THROW((void)make_synthetic_cifar(options, rng));
}

TEST(SyntheticCifar, TaskIsLearnableAboveChance) {
  // A logistic model trained briefly on the full training set must beat
  // chance on the test set by a wide margin — the task carries signal.
  SyntheticCifarOptions options;
  options.train_samples = 1500;
  options.test_samples = 500;
  util::Rng rng(9);
  const TrainTestSplit split = make_synthetic_cifar(options, rng);

  util::Rng model_rng(10);
  auto model = nn::make_logistic(split.train.spec(), options.num_classes, model_rng);
  nn::Sgd sgd({.learning_rate = 0.05F});
  const Batch train = split.train.all();
  for (int step = 0; step < 60; ++step) {
    model->zero_grad();
    const auto logits = model->forward(train.images, true);
    const auto loss = nn::softmax_cross_entropy(logits, train.labels);
    model->backward(loss.grad_logits);
    sgd.step(model->params());
  }
  const Batch test = split.test.all();
  const auto logits = model->forward(test.images, false);
  const double accuracy = static_cast<double>(nn::count_correct(logits, test.labels)) /
                          static_cast<double>(test.labels.size());
  EXPECT_GT(accuracy, 0.35);  // chance is 0.10
}

TEST(SyntheticCifar, LabelNoiseCapsAccuracy) {
  // With label_noise = 0.5, at least ~45% of test labels are re-drawn, so
  // even a perfect classifier stays below ~60%.
  SyntheticCifarOptions options;
  options.train_samples = 200;
  options.test_samples = 2000;
  options.label_noise = 0.5F;
  options.noise_stddev = 0.01F;  // nearly clean pixels
  util::Rng rng(11);
  const TrainTestSplit split = make_synthetic_cifar(options, rng);
  // Count how many test labels disagree with the class that generated the
  // pixels: a classifier cannot beat 1 - that fraction + guessing credit.
  // We can't see the true class directly, but the histogram stays roughly
  // balanced; instead verify that a strong model cannot reach 70%.
  util::Rng model_rng(12);
  auto model = nn::make_logistic(split.train.spec(), options.num_classes, model_rng);
  nn::Sgd sgd({.learning_rate = 0.1F});
  const Batch train = split.train.all();
  for (int step = 0; step < 200; ++step) {
    model->zero_grad();
    const auto logits = model->forward(train.images, true);
    const auto loss = nn::softmax_cross_entropy(logits, train.labels);
    model->backward(loss.grad_logits);
    sgd.step(model->params());
  }
  const Batch test = split.test.all();
  const auto logits = model->forward(test.images, false);
  const double accuracy = static_cast<double>(nn::count_correct(logits, test.labels)) /
                          static_cast<double>(test.labels.size());
  EXPECT_LT(accuracy, 0.70);
}

}  // namespace
}  // namespace helcfl::data

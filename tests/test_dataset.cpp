#include "data/dataset.h"

#include <gtest/gtest.h>

namespace helcfl::data {
namespace {

using tensor::Shape;
using tensor::Tensor;

Dataset make_tiny() {
  // 4 samples, 1x2x2 images with values = sample index.
  Tensor images(Shape{4, 1, 2, 2});
  for (std::size_t n = 0; n < 4; ++n) {
    for (std::size_t i = 0; i < 4; ++i) images[n * 4 + i] = static_cast<float>(n);
  }
  return Dataset(std::move(images), {0, 1, 2, 1}, 3);
}

TEST(Dataset, SizeAndClasses) {
  const Dataset ds = make_tiny();
  EXPECT_EQ(ds.size(), 4u);
  EXPECT_EQ(ds.num_classes(), 3u);
}

TEST(Dataset, SpecReflectsImageGeometry) {
  const Dataset ds = make_tiny();
  const nn::ImageSpec spec = ds.spec();
  EXPECT_EQ(spec.channels, 1u);
  EXPECT_EQ(spec.height, 2u);
  EXPECT_EQ(spec.width, 2u);
}

TEST(Dataset, GatherCopiesRequestedSamples) {
  const Dataset ds = make_tiny();
  const std::vector<std::size_t> indices = {3, 1};
  const Batch batch = ds.gather(indices);
  EXPECT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch.images.shape(), Shape({2, 1, 2, 2}));
  EXPECT_EQ(batch.images[0], 3.0F);
  EXPECT_EQ(batch.images[4], 1.0F);
  EXPECT_EQ(batch.labels, (std::vector<std::int32_t>{1, 1}));
}

TEST(Dataset, GatherEmpty) {
  const Dataset ds = make_tiny();
  const Batch batch = ds.gather(std::vector<std::size_t>{});
  EXPECT_EQ(batch.size(), 0u);
}

TEST(Dataset, GatherDuplicatesAllowed) {
  const Dataset ds = make_tiny();
  const std::vector<std::size_t> indices = {2, 2, 2};
  const Batch batch = ds.gather(indices);
  EXPECT_EQ(batch.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(batch.labels[i], 2);
}

TEST(Dataset, GatherIntoReusesTheBatchStorage) {
  const Dataset ds = make_tiny();
  Batch batch;
  ds.gather(std::vector<std::size_t>{0, 1, 2}, batch);
  const float* storage = batch.images.data().data();
  ds.gather(std::vector<std::size_t>{3}, batch);
  EXPECT_EQ(batch.images.shape(), Shape({1, 1, 2, 2}));
  EXPECT_EQ(batch.images[0], 3.0F);
  EXPECT_EQ(batch.labels, (std::vector<std::int32_t>{1}));
  ds.gather(std::vector<std::size_t>{2, 0}, batch);
  EXPECT_EQ(batch.images.data().data(), storage);
  EXPECT_EQ(batch.images.shape(), Shape({2, 1, 2, 2}));
  EXPECT_EQ(batch.images[0], 2.0F);
  EXPECT_EQ(batch.images[4], 0.0F);
  EXPECT_EQ(batch.labels, (std::vector<std::int32_t>{2, 0}));
}

TEST(Dataset, GatherRejectsAnIndexPastTheEnd) {
  const Dataset ds = make_tiny();
  EXPECT_THROW(ds.gather(std::vector<std::size_t>{1, 4}), std::out_of_range);
}

TEST(Dataset, AllReturnsEverything) {
  const Dataset ds = make_tiny();
  const Batch batch = ds.all();
  EXPECT_EQ(batch.size(), 4u);
  EXPECT_EQ(batch.labels, (std::vector<std::int32_t>{0, 1, 2, 1}));
}

TEST(Dataset, ClassHistogram) {
  const Dataset ds = make_tiny();
  EXPECT_EQ(ds.class_histogram(), (std::vector<std::size_t>{1, 2, 1}));
}

TEST(Dataset, ClassHistogramOfSubset) {
  const Dataset ds = make_tiny();
  const std::vector<std::size_t> indices = {1, 3};
  EXPECT_EQ(ds.class_histogram(indices), (std::vector<std::size_t>{0, 2, 0}));
}

TEST(Dataset, RejectsRank2Images) {
  EXPECT_THROW(Dataset(Tensor(Shape{4, 4}), {0, 1, 2, 1}, 3), std::invalid_argument);
}

TEST(Dataset, RejectsLabelCountMismatch) {
  EXPECT_THROW(Dataset(Tensor(Shape{4, 1, 2, 2}), {0, 1}, 3), std::invalid_argument);
}

TEST(Dataset, RejectsOutOfRangeLabel) {
  EXPECT_THROW(Dataset(Tensor(Shape{2, 1, 1, 1}), {0, 3}, 3), std::invalid_argument);
  EXPECT_THROW(Dataset(Tensor(Shape{2, 1, 1, 1}), {0, -1}, 3), std::invalid_argument);
}

}  // namespace
}  // namespace helcfl::data

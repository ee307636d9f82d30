#include "data/dataset.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace helcfl::data {

using tensor::Shape;
using tensor::Tensor;

Dataset::Dataset(Tensor images, std::vector<std::int32_t> labels,
                 std::size_t num_classes)
    : images_(std::move(images)), labels_(std::move(labels)), num_classes_(num_classes) {
  if (images_.shape().rank() != 4) {
    throw std::invalid_argument("Dataset: images must be [N, C, H, W], got " +
                                images_.shape().to_string());
  }
  if (images_.shape()[0] != labels_.size()) {
    throw std::invalid_argument("Dataset: image/label count mismatch");
  }
  for (const auto label : labels_) {
    if (label < 0 || static_cast<std::size_t>(label) >= num_classes_) {
      throw std::invalid_argument("Dataset: label out of range");
    }
  }
}

nn::ImageSpec Dataset::spec() const {
  return {images_.shape()[1], images_.shape()[2], images_.shape()[3]};
}

Batch Dataset::gather(std::span<const std::size_t> indices) const {
  Batch batch;
  gather(indices, batch);
  return batch;
}

void Dataset::gather(std::span<const std::size_t> indices, Batch& out) const {
  const Shape& s = images_.shape();
  const std::size_t sample_size = s[1] * s[2] * s[3];
  out.images.resize(Shape{indices.size(), s[1], s[2], s[3]});
  out.labels.resize(indices.size());
  const float* src = images_.data().data();
  float* dst = out.images.data().data();
  for (std::size_t k = 0; k < indices.size(); ++k) {
    const std::size_t i = indices[k];
    if (i >= size()) {
      throw std::out_of_range("Dataset::gather: index " + std::to_string(i) +
                              " past the end of " + std::to_string(size()) +
                              " samples");
    }
    std::copy_n(src + i * sample_size, sample_size, dst + k * sample_size);
    out.labels[k] = labels_[i];
  }
}

Batch Dataset::all() const {
  Batch batch;
  batch.images = images_;
  batch.labels = labels_;
  return batch;
}

std::vector<std::size_t> Dataset::class_histogram() const {
  std::vector<std::size_t> histogram(num_classes_, 0);
  for (const auto label : labels_) ++histogram[static_cast<std::size_t>(label)];
  return histogram;
}

std::vector<std::size_t> Dataset::class_histogram(
    std::span<const std::size_t> indices) const {
  std::vector<std::size_t> histogram(num_classes_, 0);
  for (const std::size_t i : indices) {
    ++histogram[static_cast<std::size_t>(labels_[i])];
  }
  return histogram;
}

}  // namespace helcfl::data

// Labeled image dataset container and batch extraction.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "nn/models.h"
#include "tensor/tensor.h"

namespace helcfl::data {

/// A batch ready for the model: images [B, C, H, W] plus labels.
struct Batch {
  tensor::Tensor images;
  std::vector<std::int32_t> labels;

  std::size_t size() const { return labels.size(); }
};

/// In-memory dataset of labeled images, stored [N, C, H, W].
class Dataset {
 public:
  Dataset() = default;
  /// Takes ownership of storage.  images.shape()[0] must equal labels.size();
  /// labels must be in [0, num_classes).
  Dataset(tensor::Tensor images, std::vector<std::int32_t> labels,
          std::size_t num_classes);

  std::size_t size() const { return labels_.size(); }
  std::size_t num_classes() const { return num_classes_; }
  nn::ImageSpec spec() const;

  const tensor::Tensor& images() const { return images_; }
  std::span<const std::int32_t> labels() const { return labels_; }
  std::int32_t label(std::size_t i) const { return labels_[i]; }

  /// Copies the samples at `indices` into a contiguous batch.
  Batch gather(std::span<const std::size_t> indices) const;

  /// Copies the samples at `indices` into `out`, keeping out's storage when
  /// it already holds enough, so a batch reused across calls stops
  /// allocating once it has held the largest one.  Throws std::out_of_range
  /// on an index past the end.
  void gather(std::span<const std::size_t> indices, Batch& out) const;

  /// The whole dataset as one batch (copy).
  Batch all() const;

  /// Number of samples per class, length num_classes().
  std::vector<std::size_t> class_histogram() const;

  /// Same histogram restricted to `indices`.
  std::vector<std::size_t> class_histogram(std::span<const std::size_t> indices) const;

 private:
  tensor::Tensor images_;
  std::vector<std::int32_t> labels_;
  std::size_t num_classes_ = 0;
};

}  // namespace helcfl::data

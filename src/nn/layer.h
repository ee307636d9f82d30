// Layer abstraction for the from-scratch neural-network library.
//
// Training protocol (single-threaded, as used by the FL client):
//   1. zero_grad()
//   2. y = forward(x, /*training=*/true)   -- caches whatever backward needs
//   3. dx = backward(dy)                   -- accumulates parameter gradients
//      (accumulate_grads(dy) instead when nothing reads dx, as in the FL
//      client's local update)
//   4. optimizer steps over params()
//
// forward(x, /*training=*/false) must not perturb results (e.g. dropout
// becomes identity) and may skip caching.
#pragma once

#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "tensor/tensor.h"

namespace helcfl::nn {

/// Non-owning view of one parameter tensor and its gradient accumulator.
/// Both spans alias storage owned by the layer and remain valid while the
/// layer is alive and not moved.
struct ParamRef {
  std::span<float> value;
  std::span<float> grad;
};

/// Base class for all layers.
class Layer {
 public:
  Layer() = default;
  Layer(const Layer&) = delete;
  Layer& operator=(const Layer&) = delete;
  virtual ~Layer() = default;

  /// Computes the layer output.  When `training` is true the layer caches
  /// the activations needed by backward().
  virtual tensor::Tensor forward(const tensor::Tensor& input, bool training) = 0;

  /// Given dLoss/dOutput, accumulates parameter gradients and returns
  /// dLoss/dInput.  Must be called after a training-mode forward().
  virtual tensor::Tensor backward(const tensor::Tensor& grad_output) = 0;

  /// backward() without dLoss/dInput: the same parameter gradients, bit for
  /// bit.  Conv2D and Dense override it to skip the input-gradient work.
  virtual void accumulate_grads(const tensor::Tensor& grad_output) {
    (void)backward(grad_output);
  }

  /// Trainable parameters (empty for stateless layers).
  virtual std::vector<ParamRef> params() { return {}; }

  /// Deep copy of this layer, including parameters and persistent
  /// (non-trainable) state.  The parallel trainer clones one model replica
  /// per worker thread so concurrent clients never share layer storage.
  /// Layers that cannot be replicated may keep the throwing default, but
  /// every layer shipped in src/nn overrides it.
  virtual std::unique_ptr<Layer> clone() const {
    throw std::logic_error(name() + ": clone() not supported");
  }

  /// Mutable views of persistent non-trainable state that training-mode
  /// forward passes update (e.g. BatchNorm running statistics).  Unlike
  /// params(), these buffers do not travel through FedAvg; the parallel
  /// trainer snapshots and restores them per client so results are
  /// independent of the worker a client lands on.  Empty by default.
  virtual std::vector<std::span<float>> state_buffers() { return {}; }

  /// No-op, kept only because perfbench's TimedLayer overrides it.
  virtual void mark_weights_dirty() {}

  /// Clears all gradient accumulators.
  void zero_grad() {
    for (auto& p : params()) {
      for (auto& g : p.grad) g = 0.0F;
    }
  }

  /// Diagnostic name, e.g. "Dense(192->64)".
  virtual std::string name() const = 0;
};

}  // namespace helcfl::nn

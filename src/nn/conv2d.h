// 2-D convolution over NCHW activations (im2col + GEMM algorithm).
#pragma once

#include <cstddef>
#include <vector>

#include "nn/layer.h"
#include "tensor/ops.h"

namespace helcfl::util {
class Rng;
}

namespace helcfl::nn {

/// Convolution layer.  Input [N, in_ch, H, W]; weight
/// [out_ch, in_ch, k, k]; output [N, out_ch, H_out, W_out] with
/// H_out = (H + 2*pad - k) / stride + 1.
///
/// Forward and backward lower chunks of samples to GEMM (docs/KERNELS.md).
/// A chunk is as many samples as fit in 256 output positions (one sample
/// when H_out*W_out alone is larger).  Their receptive fields are unrolled
/// side by side into one column panel [in_ch*k*k, cnt*H_out*W_out]
/// (im2col), one GEMM with the bias fused computes W[out_ch, in_ch*k*k]
/// times the panel, and the result is scattered back to NCHW.  The input
/// gradient runs in reverse: one W^T GEMM per chunk on the gathered output
/// gradients, then col2im per sample.
///
/// Chunking moves no bit: a forward output reduces over in_ch*k*k and an
/// input-gradient column over out_ch alone, and the GEMM's per-element
/// order (ascending k, k-blocks folded in order) does not depend on n.  The
/// weight and bias gradients also sum over samples, so they stay one GEMM
/// per sample in sample order: that loop is their reduction order.
///
/// Scratch is cached per layer and grows to the largest chunk seen, so
/// steady-state passes allocate nothing beyond their output tensors.
class Conv2D : public Layer {
 public:
  /// He-initializes the kernel with `rng`; bias starts at zero.
  Conv2D(std::size_t in_channels, std::size_t out_channels, std::size_t kernel_size,
         std::size_t stride, std::size_t padding, util::Rng& rng);
  Conv2D(const Conv2D& other);

  tensor::Tensor forward(const tensor::Tensor& input, bool training) override;
  tensor::Tensor backward(const tensor::Tensor& grad_output) override;
  std::vector<ParamRef> params() override;
  std::unique_ptr<Layer> clone() const override;
  void mark_weights_dirty() override { packed_.invalidate(); }
  std::string name() const override;

  std::size_t in_channels() const { return in_channels_; }
  std::size_t out_channels() const { return out_channels_; }
  std::size_t kernel_size() const { return kernel_; }

  /// Output spatial size for an input extent (height or width).
  std::size_t output_extent(std::size_t input_extent) const;

 private:
  /// Copies one input sample [in_ch, h_in, w_in] into pad_ as
  /// [in_ch, h_in+2p, w_in+2p] with a zero border and returns it, so the
  /// lowering below needs no bounds tests; returns `src` itself when p = 0.
  const float* pad(const float* src, std::size_t h_in, std::size_t w_in);

  /// Adjoint of pad(): copies pad_'s interior into one sample `dst`.
  void unpad(std::size_t h_in, std::size_t w_in, float* dst) const;

  /// Unrolls one padded sample [in_ch, hp, wp] into columns
  /// [in_ch*k*k, h_out*w_out] of a panel whose rows are `ld` floats apart.
  void im2col(const float* src, std::size_t hp, std::size_t wp,
              std::size_t h_out, std::size_t w_out, std::size_t ld,
              float* dst) const;

  /// Adjoint of im2col: accumulates the columns [in_ch*k*k, h_out*w_out]
  /// of a panel with row stride `ld` into one padded gradient sample
  /// [in_ch, hp, wp] (zero-initialized by the caller).
  void col2im(const float* src, std::size_t hp, std::size_t wp,
              std::size_t h_out, std::size_t w_out, std::size_t ld,
              float* dst) const;

  std::size_t in_channels_;
  std::size_t out_channels_;
  std::size_t kernel_;
  std::size_t stride_;
  std::size_t padding_;
  tensor::Tensor weight_;       // [out, in, k, k]
  tensor::Tensor bias_;         // [out]
  tensor::Tensor grad_weight_;
  tensor::Tensor grad_bias_;
  tensor::Tensor cached_input_;
  // Per-layer scratch, grown to the largest shape seen and then reused
  // (tensor::scratch_realloc_count() audits steady-state behaviour).
  std::vector<float> col_;       // im2col panel [in*k*k, cnt*h_out*w_out]
  std::vector<float> col_grad_;  // backward column gradients, same extent
  std::vector<float> panel_;     // chunk outputs / gathered output grads
                                 // [out_ch, cnt*h_out*w_out]
  std::vector<float> pad_;       // one zero-bordered sample [in, hp, wp]
  // Weight panels [out_ch, in*k*k] in the kernel's layout, repacked lazily
  // after every weight mutation (Layer::mark_weights_dirty) and reused
  // across samples, batches, and clients.
  tensor::PackedWeights packed_;
};

}  // namespace helcfl::nn

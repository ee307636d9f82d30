// 2-D convolution over NCHW activations (implicit-GEMM algorithm).
#pragma once

#include <cstddef>
#include <vector>

#include "nn/layer.h"
#include "tensor/gemm_kernel.h"

namespace helcfl::util {
class Rng;
}

namespace helcfl::nn {

/// Convolution layer.  Input [N, in_ch, H, W]; weight
/// [out_ch, in_ch, k, k]; output [N, out_ch, H_out, W_out] with
/// H_out = (H + 2*pad - k) / stride + 1.
///
/// Forward and backward lower chunks of samples to implicit GEMM
/// (docs/KERNELS.md).  A chunk is as many samples as fit in 256 output
/// positions (one sample when H_out*W_out alone is larger).  The GEMM packs
/// the chunk's column panel [in_ch*k*k, cnt*H_out*W_out] straight from the
/// zero-bordered samples through the im2col index map; one GEMM with the
/// bias fused computes W[out_ch, in_ch*k*k] times it, and the result is
/// scattered back to NCHW.  Backward gathers the output gradients into one
/// panel: one GEMM against the implicit panel's transpose accumulates
/// grad_W, and the input gradient is one W^T GEMM plus col2im per sample.
///
/// Chunking moves no bit: a forward output reduces over in_ch*k*k and an
/// input-gradient column over out_ch alone, and the GEMM's per-element
/// order (ascending k, k-blocks folded in order) does not depend on n.  The
/// weight and bias gradients sum over samples in sample order: the grad_W
/// GEMM restarts its k-blocks at every sample (k_segment = H_out*W_out).
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
  tensor::Tensor backward(const tensor::Tensor& grad_output) override {
    return backprop(grad_output, true);
  }
  void accumulate_grads(const tensor::Tensor& grad_output) override {
    (void)backprop(grad_output, false);
  }
  std::vector<ParamRef> params() override;
  std::unique_ptr<Layer> clone() const override;
  std::string name() const override;

  std::size_t in_channels() const { return in_channels_; }
  std::size_t out_channels() const { return out_channels_; }
  std::size_t kernel_size() const { return kernel_; }

  /// Output spatial size for an input extent (height or width).
  std::size_t output_extent(std::size_t input_extent) const;

 private:
  /// Extents of one pass over an input [batch, in_ch, h_in, w_in]; hp/wp
  /// are padded, ckk = in_ch*k*k, chunk = samples per GEMM, and in_plane /
  /// out_plane are the floats of one input / output sample.
  struct Geometry {
    std::size_t batch, h_in, w_in, h_out, w_out, hw, hp, wp, ckk, chunk;
    std::size_t in_plane, out_plane;
  };
  /// The geometry of `input`, with panel_ and pad_ grown to fit a chunk.
  Geometry prepare(const tensor::Shape& input);

  /// The im2col view of `cnt` input samples.  With padding p > 0 it copies
  /// them into pad_ as [in_ch, h_in+2p, w_in+2p] with a zero border first,
  /// so the index map needs no bounds tests; with p = 0 it reads `src`.
  tensor::detail::Im2colView padded_view(const float* src, std::size_t cnt,
                                         const Geometry& g);

  /// Adjoint of padded_view: folds one sample's columns [ckk, h_out*w_out]
  /// of a panel with row stride `ld` into its gradient [in_ch, h_in, w_in]
  /// (zero-initialized by the caller), through pad_ when p > 0.
  void col2im(const float* src, const Geometry& g, std::size_t ld, float* dst);

  /// backward() and accumulate_grads(): accumulates the parameter
  /// gradients, and returns dL/dx when `input_grad` (else an empty tensor).
  tensor::Tensor backprop(const tensor::Tensor& grad_output, bool input_grad);

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
  std::vector<float> col_grad_;  // column gradients [in*k*k, cnt*h_out*w_out]
  std::vector<float> panel_;     // chunk outputs / gathered output grads
                                 // [out_ch, cnt*h_out*w_out]
  std::vector<float> pad_;       // zero-bordered chunk [cnt, in, hp, wp], or
                                 // one sample's padded input gradient
};

}  // namespace helcfl::nn

// Convolution through an explicit column panel: the im2col + GEMM lowering
// Conv2D used before its GEMM packed straight from the image.
//
// Kept as the *bitwise oracle* for the implicit-GEMM path: every sample is
// unrolled into a real [in_ch*k*k, H_out*W_out] panel, the forward is one
// public gemm_bias_rows per sample, the input gradient one gemm_at_b plus
// col2im per sample, and the weight gradient one gemm_a_bt_accumulate per
// sample in sample order.  Those are the reduction orders Conv2D promises,
// so tests/test_conv2d.cpp requires bit-for-bit agreement.  Do not
// "optimize" it.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "tensor/tensor.h"

namespace helcfl::nn {

/// One convolution layer's geometry (Conv2D's constructor arguments).
struct ConvSpec {
  std::size_t in_ch = 0;
  std::size_t out_ch = 0;
  std::size_t kernel = 0;
  std::size_t stride = 1;
  std::size_t pad = 0;
};

/// Unrolls one zero-bordered sample [in_ch, hp, wp] into the columns
/// [in_ch*k*k, h_out*w_out] of a panel whose rows are `ld` floats apart.
void explicit_im2col(const float* sample, std::size_t in_ch, std::size_t kernel,
                     std::size_t stride, std::size_t hp, std::size_t wp,
                     std::size_t h_out, std::size_t w_out, std::size_t ld,
                     float* dst);

struct ExplicitConvResult {
  tensor::Tensor output;      ///< [N, out_ch, H_out, W_out]
  tensor::Tensor grad_input;  ///< [N, in_ch, H, W]
  std::vector<float> grad_weight;  ///< [out_ch, in_ch, k, k], from zero
  std::vector<float> grad_bias;    ///< [out_ch], from zero
};

/// Forward of `input` [N, in_ch, H, W] with weight [out_ch, in_ch, k, k]
/// and bias [out_ch], then backward of `grad_output` (the output's shape).
ExplicitConvResult explicit_conv(const ConvSpec& spec, std::span<const float> weight,
                                 std::span<const float> bias,
                                 const tensor::Tensor& input,
                                 const tensor::Tensor& grad_output);

}  // namespace helcfl::nn

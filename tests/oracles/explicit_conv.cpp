#include "oracles/explicit_conv.h"

#include <algorithm>

#include "tensor/ops.h"

namespace helcfl::nn {

using tensor::Shape;
using tensor::Tensor;

void explicit_im2col(const float* sample, std::size_t in_ch, std::size_t kernel,
                     std::size_t stride, std::size_t hp, std::size_t wp,
                     std::size_t h_out, std::size_t w_out, std::size_t ld,
                     float* dst) {
  std::size_t r = 0;
  for (std::size_t ic = 0; ic < in_ch; ++ic) {
    const float* plane = sample + ic * hp * wp;
    for (std::size_t ky = 0; ky < kernel; ++ky) {
      for (std::size_t kx = 0; kx < kernel; ++kx, ++r) {
        float* row = dst + r * ld;
        for (std::size_t y = 0; y < h_out; ++y) {
          for (std::size_t x = 0; x < w_out; ++x) {
            row[y * w_out + x] = plane[(y * stride + ky) * wp + x * stride + kx];
          }
        }
      }
    }
  }
}

ExplicitConvResult explicit_conv(const ConvSpec& spec, std::span<const float> weight,
                                 std::span<const float> bias, const Tensor& input,
                                 const Tensor& grad_output) {
  const std::size_t batch = input.shape()[0];
  const std::size_t h_in = input.shape()[2];
  const std::size_t w_in = input.shape()[3];
  const std::size_t hp = h_in + 2 * spec.pad;
  const std::size_t wp = w_in + 2 * spec.pad;
  const std::size_t h_out = (hp - spec.kernel) / spec.stride + 1;
  const std::size_t w_out = (wp - spec.kernel) / spec.stride + 1;
  const std::size_t hw = h_out * w_out;
  const std::size_t ckk = spec.in_ch * spec.kernel * spec.kernel;
  const std::size_t in_plane = spec.in_ch * h_in * w_in;
  const std::size_t out_plane = spec.out_ch * hw;

  ExplicitConvResult result{Tensor(Shape{batch, spec.out_ch, h_out, w_out}),
                            Tensor(input.shape()),
                            std::vector<float>(spec.out_ch * ckk, 0.0F),
                            std::vector<float>(spec.out_ch, 0.0F)};
  std::vector<float> padded(spec.in_ch * hp * wp);
  std::vector<float> col(ckk * hw);
  std::vector<float> col_grad(ckk * hw);
  for (std::size_t n = 0; n < batch; ++n) {
    // Zero-bordered copy of sample n, then its explicit column panel.
    std::fill(padded.begin(), padded.end(), 0.0F);
    const float* x = input.data().data() + n * in_plane;
    for (std::size_t ic = 0; ic < spec.in_ch; ++ic) {
      for (std::size_t y = 0; y < h_in; ++y) {
        std::copy_n(x + (ic * h_in + y) * w_in, w_in,
                    padded.data() + (ic * hp + y + spec.pad) * wp + spec.pad);
      }
    }
    explicit_im2col(padded.data(), spec.in_ch, spec.kernel, spec.stride, hp, wp,
                    h_out, w_out, hw, col.data());

    // y_n[out_ch, hw] = W[out_ch, ckk] * col[ckk, hw] + bias
    tensor::gemm_bias_rows(spec.out_ch, ckk, hw, weight, col, bias,
                           result.output.data().subspan(n * out_plane, out_plane));

    const std::span<const float> gout = grad_output.data().subspan(n * out_plane, out_plane);
    // grad_col[ckk, hw] = W^T * gout, folded back into a zeroed padded sample.
    tensor::gemm_at_b(ckk, spec.out_ch, hw, weight, gout, col_grad);
    std::fill(padded.begin(), padded.end(), 0.0F);
    std::size_t r = 0;
    for (std::size_t ic = 0; ic < spec.in_ch; ++ic) {
      for (std::size_t ky = 0; ky < spec.kernel; ++ky) {
        for (std::size_t kx = 0; kx < spec.kernel; ++kx, ++r) {
          for (std::size_t y = 0; y < h_out; ++y) {
            for (std::size_t xo = 0; xo < w_out; ++xo) {
              padded[(ic * hp + y * spec.stride + ky) * wp + xo * spec.stride + kx] +=
                  col_grad[r * hw + y * w_out + xo];
            }
          }
        }
      }
    }
    float* gin = result.grad_input.data().data() + n * in_plane;
    for (std::size_t ic = 0; ic < spec.in_ch; ++ic) {
      for (std::size_t y = 0; y < h_in; ++y) {
        std::copy_n(padded.data() + (ic * hp + y + spec.pad) * wp + spec.pad, w_in,
                    gin + (ic * h_in + y) * w_in);
      }
    }

    // grad_W += gout[out_ch, hw] * col^T; grad_b += per-channel sums.
    tensor::gemm_a_bt_accumulate(spec.out_ch, hw, ckk, gout, col, result.grad_weight);
    for (std::size_t oc = 0; oc < spec.out_ch; ++oc) {
      float sum = 0.0F;
      for (std::size_t j = 0; j < hw; ++j) sum += gout[oc * hw + j];
      result.grad_bias[oc] += sum;
    }
  }
  return result;
}

}  // namespace helcfl::nn

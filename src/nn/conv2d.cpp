#include "nn/conv2d.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "tensor/gemm_kernel.h"
#include "tensor/ops.h"
#include "util/rng.h"

namespace helcfl::nn {

using tensor::Shape;
using tensor::Tensor;

Conv2D::Conv2D(std::size_t in_channels, std::size_t out_channels,
               std::size_t kernel_size, std::size_t stride, std::size_t padding,
               util::Rng& rng)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel_size),
      stride_(stride),
      padding_(padding),
      weight_(Shape{out_channels, in_channels, kernel_size, kernel_size}),
      bias_(Shape{out_channels}),
      grad_weight_(Shape{out_channels, in_channels, kernel_size, kernel_size}),
      grad_bias_(Shape{out_channels}) {
  if (stride == 0) throw std::invalid_argument("Conv2D: stride must be positive");
  const auto fan_in = static_cast<float>(in_channels * kernel_size * kernel_size);
  weight_.fill_normal(rng, 0.0F, std::sqrt(2.0F / fan_in));
}

Conv2D::Conv2D(const Conv2D& other)
    : Layer(),
      in_channels_(other.in_channels_),
      out_channels_(other.out_channels_),
      kernel_(other.kernel_),
      stride_(other.stride_),
      padding_(other.padding_),
      weight_(other.weight_),
      bias_(other.bias_),
      grad_weight_(other.grad_weight_),
      grad_bias_(other.grad_bias_) {}
// Scratch and the cached forward input intentionally stay empty in copies:
// clones (one per client replica) grow their own on first use.

std::unique_ptr<Layer> Conv2D::clone() const {
  return std::make_unique<Conv2D>(*this);
}

std::size_t Conv2D::output_extent(std::size_t input_extent) const {
  const std::size_t padded = input_extent + 2 * padding_;
  if (padded < kernel_) {
    throw std::invalid_argument("Conv2D: input extent " + std::to_string(input_extent) +
                                " too small for kernel " + std::to_string(kernel_));
  }
  return (padded - kernel_) / stride_ + 1;
}

namespace {

// Output positions one lowered chunk holds.  256 is a whole number of
// micro-tile columns for every kernel (Nr = 8, 16, 32), so a 4x4 map (16
// positions) no longer fills half a 32-wide panel, and one GEMM call
// amortizes its packing and dispatch over 256 columns.  It stays small
// enough that the zoo's column panels [in_ch*k*k, 256] (at most 72 KB)
// remain cache-resident and scratch stays bounded for any batch.
constexpr std::size_t kChunkCols = 256;

/// Samples per chunk when each has `hw` output positions:
/// floor(kChunkCols / hw), at least 1, at most the batch.
std::size_t chunk_samples(std::size_t batch, std::size_t hw) {
  return std::clamp<std::size_t>(kChunkCols / hw, 1, std::max<std::size_t>(batch, 1));
}

}  // namespace

const float* Conv2D::pad(const float* src, std::size_t h_in, std::size_t w_in) {
  if (padding_ == 0) return src;
  const std::size_t hp = h_in + 2 * padding_;
  const std::size_t wp = w_in + 2 * padding_;
  std::fill_n(pad_.data(), in_channels_ * hp * wp, 0.0F);
  for (std::size_t ic = 0; ic < in_channels_; ++ic) {
    for (std::size_t y = 0; y < h_in; ++y) {
      std::copy_n(src + (ic * h_in + y) * w_in, w_in,
                  pad_.data() + (ic * hp + y + padding_) * wp + padding_);
    }
  }
  return pad_.data();
}

void Conv2D::unpad(std::size_t h_in, std::size_t w_in, float* dst) const {
  const std::size_t hp = h_in + 2 * padding_;
  const std::size_t wp = w_in + 2 * padding_;
  for (std::size_t ic = 0; ic < in_channels_; ++ic) {
    for (std::size_t y = 0; y < h_in; ++y) {
      std::copy_n(pad_.data() + (ic * hp + y + padding_) * wp + padding_, w_in,
                  dst + (ic * h_in + y) * w_in);
    }
  }
}

void Conv2D::im2col(const float* __restrict__ src, std::size_t hp, std::size_t wp,
                    std::size_t h_out, std::size_t w_out, std::size_t ld,
                    float* __restrict__ dst) const {
  std::size_t r = 0;
  for (std::size_t ic = 0; ic < in_channels_; ++ic) {
    const float* plane = src + ic * hp * wp;
    for (std::size_t ky = 0; ky < kernel_; ++ky) {
      for (std::size_t kx = 0; kx < kernel_; ++kx, ++r) {
        float* row = dst + r * ld;
        for (std::size_t y = 0; y < h_out; ++y) {
          const float* in = plane + (y * stride_ + ky) * wp + kx;
          float* out = row + y * w_out;
          for (std::size_t x = 0; x < w_out; ++x) out[x] = in[x * stride_];
        }
      }
    }
  }
}

void Conv2D::col2im(const float* __restrict__ src, std::size_t hp, std::size_t wp,
                    std::size_t h_out, std::size_t w_out, std::size_t ld,
                    float* __restrict__ dst) const {
  std::size_t r = 0;
  for (std::size_t ic = 0; ic < in_channels_; ++ic) {
    float* plane = dst + ic * hp * wp;
    for (std::size_t ky = 0; ky < kernel_; ++ky) {
      for (std::size_t kx = 0; kx < kernel_; ++kx, ++r) {
        const float* row = src + r * ld;
        for (std::size_t y = 0; y < h_out; ++y) {
          const float* in = row + y * w_out;
          float* out = plane + (y * stride_ + ky) * wp + kx;
          for (std::size_t x = 0; x < w_out; ++x) out[x * stride_] += in[x];
        }
      }
    }
  }
}

Tensor Conv2D::forward(const Tensor& input, bool training) {
  const Shape& s = input.shape();
  if (s.rank() != 4 || s[1] != in_channels_) {
    throw std::invalid_argument("Conv2D::forward: expected [N, " +
                                std::to_string(in_channels_) + ", H, W], got " +
                                s.to_string());
  }
  const std::size_t batch = s[0];
  const std::size_t h_in = s[2];
  const std::size_t w_in = s[3];
  const std::size_t h_out = output_extent(h_in);
  const std::size_t w_out = output_extent(w_in);
  const std::size_t ckk = in_channels_ * kernel_ * kernel_;
  const std::size_t hw = h_out * w_out;
  const std::size_t hp = h_in + 2 * padding_;
  const std::size_t wp = w_in + 2 * padding_;
  const std::size_t in_plane = in_channels_ * h_in * w_in;
  const std::size_t out_plane = out_channels_ * hw;
  const std::size_t chunk = chunk_samples(batch, hw);

  Tensor output(Shape{batch, out_channels_, h_out, w_out});
  tensor::detail::ensure_scratch(col_, ckk * chunk * hw);
  tensor::detail::ensure_scratch(panel_, out_channels_ * chunk * hw);
  if (padding_ > 0) tensor::detail::ensure_scratch(pad_, in_channels_ * hp * wp);
  const float* in = input.data().data();
  float* out = output.data().data();
  // The weight acts as the [out_ch, ckk] left operand of every chunk's
  // GEMM; pack its panels once per weight mutation instead of per call.
  // Packed and unpacked paths produce identical bits (ops.h).
  const bool prepack = tensor::weight_prepack_enabled();
  if (prepack && !packed_.is_a(out_channels_, ckk)) {
    packed_.pack_a(out_channels_, ckk, weight_.data());
  }
  // Per chunk of cnt samples: panel[out_ch, cnt*hw] = W * col[ckk, cnt*hw]
  // + bias (fused), then scatter the panel's per-sample column blocks into
  // NCHW.
  for (std::size_t n0 = 0; n0 < batch; n0 += chunk) {
    const std::size_t cnt = std::min(chunk, batch - n0);
    const std::size_t cols = cnt * hw;
    for (std::size_t i = 0; i < cnt; ++i) {
      im2col(pad(in + (n0 + i) * in_plane, h_in, w_in), hp, wp, h_out, w_out,
             cols, col_.data() + i * hw);
    }
    const std::span<const float> col(col_.data(), ckk * cols);
    const std::span<float> panel(panel_.data(), out_channels_ * cols);
    if (prepack) {
      tensor::gemm_bias_rows(out_channels_, ckk, cols, packed_, col,
                             bias_.data(), panel);
    } else {
      tensor::gemm_bias_rows(out_channels_, ckk, cols, weight_.data(), col,
                             bias_.data(), panel);
    }
    for (std::size_t i = 0; i < cnt; ++i) {
      for (std::size_t oc = 0; oc < out_channels_; ++oc) {
        std::copy_n(panel_.data() + oc * cols + i * hw, hw,
                    out + (n0 + i) * out_plane + oc * hw);
      }
    }
  }
  if (training) cached_input_ = input;
  return output;
}

Tensor Conv2D::backward(const Tensor& grad_output) {
  assert(!cached_input_.empty() && "backward() requires a training forward()");
  const Shape& s = cached_input_.shape();
  const std::size_t batch = s[0];
  const std::size_t h_in = s[2];
  const std::size_t w_in = s[3];
  const std::size_t h_out = grad_output.shape()[2];
  const std::size_t w_out = grad_output.shape()[3];
  assert(grad_output.shape() == Shape({batch, out_channels_, h_out, w_out}));
  const std::size_t ckk = in_channels_ * kernel_ * kernel_;
  const std::size_t hw = h_out * w_out;
  const std::size_t hp = h_in + 2 * padding_;
  const std::size_t wp = w_in + 2 * padding_;
  const std::size_t in_plane = in_channels_ * h_in * w_in;
  const std::size_t out_plane = out_channels_ * hw;
  const std::size_t chunk = chunk_samples(batch, hw);

  tensor::detail::ensure_scratch(col_, ckk * hw);
  tensor::detail::ensure_scratch(col_grad_, ckk * chunk * hw);
  tensor::detail::ensure_scratch(panel_, out_channels_ * chunk * hw);
  if (padding_ > 0) tensor::detail::ensure_scratch(pad_, in_channels_ * hp * wp);

  Tensor grad_input(s);
  const float* in = cached_input_.data().data();
  const float* gout = grad_output.data().data();
  float* gin = grad_input.data().data();
  for (std::size_t n0 = 0; n0 < batch; n0 += chunk) {
    const std::size_t cnt = std::min(chunk, batch - n0);
    const std::size_t cols = cnt * hw;
    // Gather the chunk's output gradients into one [out_ch, cnt*hw] panel
    // (the inverse of the forward scatter).
    for (std::size_t i = 0; i < cnt; ++i) {
      for (std::size_t oc = 0; oc < out_channels_; ++oc) {
        std::copy_n(gout + (n0 + i) * out_plane + oc * hw, hw,
                    panel_.data() + oc * cols + i * hw);
      }
    }
    // grad_col[ckk, cnt*hw] = W^T[ckk, oc] * panel[oc, cnt*hw]; every
    // element reduces over out_ch alone, so chunking cannot move its bits.
    tensor::gemm_at_b(ckk, out_channels_, cols, weight_.data(),
                      std::span<const float>(panel_.data(), out_channels_ * cols),
                      std::span<float>(col_grad_.data(), ckk * cols));
    for (std::size_t i = 0; i < cnt; ++i) {
      const std::size_t n = n0 + i;
      const float* gout_n = gout + n * out_plane;
      float* gin_n = gin + n * in_plane;
      // Fold the sample's column gradients back.  With padding they land in
      // a zeroed padded plane whose interior is the gradient; the additions
      // reach each element in the same order either way.
      if (padding_ == 0) {
        col2im(col_grad_.data() + i * hw, hp, wp, h_out, w_out, cols, gin_n);
      } else {
        std::fill_n(pad_.data(), in_channels_ * hp * wp, 0.0F);
        col2im(col_grad_.data() + i * hw, hp, wp, h_out, w_out, cols, pad_.data());
        unpad(h_in, w_in, gin_n);
      }
      // The weight and bias gradients sum over samples, so they stay one
      // sample at a time in sample order: that loop is their reduction
      // order.  Recompute the sample's columns (forward kept only its input).
      im2col(pad(in + n * in_plane, h_in, w_in), hp, wp, h_out, w_out, hw,
             col_.data());
      // grad_W[oc, ckk] += gout[oc, hw] * col^T[hw, ckk]
      tensor::gemm_a_bt_accumulate(out_channels_, hw, ckk,
                                   std::span<const float>(gout_n, out_plane),
                                   std::span<const float>(col_.data(), ckk * hw),
                                   grad_weight_.data());
      // grad_b[oc] += sum over spatial positions
      for (std::size_t oc = 0; oc < out_channels_; ++oc) {
        const float* g_row = gout_n + oc * hw;
        float sum = 0.0F;
        for (std::size_t j = 0; j < hw; ++j) sum += g_row[j];
        grad_bias_[oc] += sum;
      }
    }
  }
  return grad_input;
}

std::vector<ParamRef> Conv2D::params() {
  return {{weight_.data(), grad_weight_.data(), this},
          {bias_.data(), grad_bias_.data(), this}};
}

std::string Conv2D::name() const {
  return "Conv2D(" + std::to_string(in_channels_) + "->" +
         std::to_string(out_channels_) + ", k=" + std::to_string(kernel_) +
         ", s=" + std::to_string(stride_) + ", p=" + std::to_string(padding_) + ")";
}

}  // namespace helcfl::nn

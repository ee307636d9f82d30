#include "nn/conv2d.h"

#include <algorithm>
#include <cmath>
#include <numeric>
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
// enough that the zoo's padded chunks and gradient panels remain
// cache-resident and scratch stays bounded for any batch.
constexpr std::size_t kChunkCols = 256;

/// Adds a W-float column of a stride-1 gradient row block into the image:
/// in[y * w_out + t] goes to out[y * wp + t] for each of the h_out rows.
/// Each element gets one addition, so the order of taps reaching it is
/// kept.  Pieces stay 4 floats wide: a wider piece partly overlaps the next
/// tap's (one float over), and a load across such a pending store stalls.
template <std::size_t W>
inline void fold_column(const float* __restrict__ in, std::size_t w_out, std::size_t h_out,
                        float* __restrict__ out, std::size_t wp) {
  for (std::size_t y = 0; y < h_out; ++y) {
    for (std::size_t t = 0; t < W; ++t) out[y * wp + t] += in[y * w_out + t];
  }
}

}  // namespace

Conv2D::Geometry Conv2D::prepare(const Shape& s) {
  const std::size_t h_out = output_extent(s[2]);
  const std::size_t w_out = output_extent(s[3]);
  const std::size_t hw = h_out * w_out;
  // Samples per chunk: floor(kChunkCols / hw), at least 1, at most the batch.
  const std::size_t chunk =
      std::clamp<std::size_t>(kChunkCols / hw, 1, std::max<std::size_t>(s[0], 1));
  const Geometry g{s[0], s[2], s[3], h_out, w_out, hw, s[2] + 2 * padding_,
                   s[3] + 2 * padding_, in_channels_ * kernel_ * kernel_, chunk,
                   in_channels_ * s[2] * s[3], out_channels_ * hw};
  tensor::detail::ensure_scratch(panel_, out_channels_ * chunk * hw);
  if (padding_ > 0) tensor::detail::ensure_scratch(pad_, chunk * in_channels_ * g.hp * g.wp);
  return g;
}

tensor::detail::Im2colView Conv2D::padded_view(const float* src, std::size_t cnt,
                                               const Geometry& g) {
  const tensor::detail::Im2colView view{
      padding_ == 0 ? src : pad_.data(), in_channels_, kernel_, stride_, g.hp,
      g.wp, g.h_out, g.w_out, in_channels_ * g.hp * g.wp};
  if (padding_ == 0) return view;
  std::fill_n(pad_.data(), cnt * view.sample_stride, 0.0F);
  for (std::size_t plane = 0; plane < cnt * in_channels_; ++plane) {
    for (std::size_t y = 0; y < g.h_in; ++y) {
      std::copy_n(src + (plane * g.h_in + y) * g.w_in, g.w_in,
                  pad_.data() + (plane * g.hp + y + padding_) * g.wp + padding_);
    }
  }
  return view;
}

void Conv2D::col2im(const float* __restrict__ src, const Geometry& g, std::size_t ld,
                    float* __restrict__ dst) {
  // With padding the columns land in a zeroed padded sample whose interior
  // is the gradient; the additions reach each element in the same order.
  float* padded = padding_ == 0 ? dst : pad_.data();
  if (padding_ > 0) std::fill_n(padded, in_channels_ * g.hp * g.wp, 0.0F);
  std::size_t r = 0;
  for (std::size_t ic = 0; ic < in_channels_; ++ic) {
    float* plane = padded + ic * g.hp * g.wp;
    for (std::size_t ky = 0; ky < kernel_; ++ky) {
      for (std::size_t kx = 0; kx < kernel_; ++kx, ++r) {
        const float* row = src + r * ld;
        float* origin = plane + ky * g.wp + kx;
        if (stride_ > 1) {
          for (std::size_t y = 0; y < g.h_out; ++y) {
            const float* in = row + y * g.w_out;
            float* out = origin + y * stride_ * g.wp;
            for (std::size_t x = 0; x < g.w_out; ++x) out[x * stride_] += in[x];
          }
          continue;
        }
        // Stride 1: fixed-width 4-float columns down all h_out rows (a
        // runtime-length loop over a 4-float row stays scalar), then
        // single-float tail columns.
        std::size_t x = 0;
        for (; x + 4 <= g.w_out; x += 4) {
          fold_column<4>(row + x, g.w_out, g.h_out, origin + x, g.wp);
        }
        for (; x < g.w_out; ++x) fold_column<1>(row + x, g.w_out, g.h_out, origin + x, g.wp);
      }
    }
  }
  if (padding_ == 0) return;
  for (std::size_t ic = 0; ic < in_channels_; ++ic) {
    for (std::size_t y = 0; y < g.h_in; ++y) {
      std::copy_n(padded + (ic * g.hp + y + padding_) * g.wp + padding_, g.w_in,
                  dst + (ic * g.h_in + y) * g.w_in);
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
  const Geometry g = prepare(s);
  Tensor output(Shape{g.batch, out_channels_, g.h_out, g.w_out});
  const float* in = input.data().data();
  float* out = output.data().data();
  // The weight acts as the [out_ch, ckk] left operand of every chunk's
  // GEMM; pack its panels once per weight mutation instead of per call.
  // Packed and unpacked paths produce identical bits (ops.h).
  const bool prepack = tensor::weight_prepack_enabled();
  if (prepack && !packed_.is_a(out_channels_, g.ckk)) {
    packed_.pack_a(out_channels_, g.ckk, weight_.data());
  }
  // Per chunk of cnt samples: panel[out_ch, cnt*hw] = W * cols[ckk, cnt*hw]
  // + bias (fused), packing cols straight from the padded chunk; then
  // scatter the panel's per-sample column blocks into NCHW.
  for (std::size_t n0 = 0; n0 < g.batch; n0 += g.chunk) {
    const std::size_t cnt = std::min(g.chunk, g.batch - n0);
    const std::size_t cols = cnt * g.hw;
    const tensor::detail::Im2colView view = padded_view(in + n0 * g.in_plane, cnt, g);
    tensor::detail::run_gemm({.m = out_channels_, .k = g.ckk, .n = cols,
                              .a = weight_.data().data(), .c = panel_.data(),
                              .bias = bias_.data().data(),
                              .packed_a = prepack ? packed_.panels() : nullptr,
                              .b_view = &view});
    for (std::size_t i = 0; i < cnt; ++i) {
      for (std::size_t oc = 0; oc < out_channels_; ++oc) {
        std::copy_n(panel_.data() + oc * cols + i * g.hw, g.hw,
                    out + (n0 + i) * g.out_plane + oc * g.hw);
      }
    }
  }
  if (training) cached_input_ = input;
  return output;
}

Tensor Conv2D::backprop(const Tensor& grad_output, bool input_grad) {
  if (cached_input_.shape().rank() == 0) {
    throw std::logic_error("Conv2D::backward: requires a training forward()");
  }
  const Geometry g = prepare(cached_input_.shape());
  tensor::require_same_shape(grad_output.shape(), {g.batch, out_channels_, g.h_out, g.w_out},
                             "Conv2D::backward: grad_output vs forward output");
  if (input_grad) tensor::detail::ensure_scratch(col_grad_, g.ckk * g.chunk * g.hw);
  Tensor grad_input(input_grad ? cached_input_.shape() : Shape{});
  const float* in = cached_input_.data().data();
  const float* gout = grad_output.data().data();
  for (std::size_t n0 = 0; n0 < g.batch; n0 += g.chunk) {
    const std::size_t cnt = std::min(g.chunk, g.batch - n0);
    const std::size_t cols = cnt * g.hw;
    // Gather the chunk's output gradients into one [out_ch, cnt*hw] panel
    // (the inverse of the forward scatter).
    for (std::size_t i = 0; i < cnt; ++i) {
      for (std::size_t oc = 0; oc < out_channels_; ++oc) {
        std::copy_n(gout + (n0 + i) * g.out_plane + oc * g.hw, g.hw,
                    panel_.data() + oc * cols + i * g.hw);
      }
    }
    // grad_col[ckk, cnt*hw] = W^T[ckk, oc] * panel[oc, cnt*hw]; every
    // element reduces over out_ch alone, so chunking cannot move its bits.
    // Each sample's columns then fold back through col2im.
    if (input_grad) {
      tensor::gemm_at_b(g.ckk, out_channels_, cols, weight_.data(),
                        std::span<const float>(panel_.data(), out_channels_ * cols),
                        std::span<float>(col_grad_.data(), g.ckk * cols));
      for (std::size_t i = 0; i < cnt; ++i) {
        col2im(col_grad_.data() + i * g.hw, g, cols,
               grad_input.data().data() + (n0 + i) * g.in_plane);
      }
    }
    // grad_W[oc, ckk] += panel[oc, cnt*hw] * cols^T, packing cols straight
    // from the padded chunk.  k_segment = hw restarts the k-blocks at every
    // sample, so C folds one sample at a time in sample order, exactly as
    // one GEMM per sample would.
    const tensor::detail::Im2colView view = padded_view(in + n0 * g.in_plane, cnt, g);
    tensor::detail::run_gemm({.m = out_channels_, .k = cols, .n = g.ckk,
                              .a = panel_.data(), .c = grad_weight_.data().data(),
                              .trans_b = true, .accumulate = true,
                              .b_view = &view, .k_segment = g.hw});
    // grad_b[oc] += sum over spatial positions, one sample at a time.
    for (std::size_t i = 0; i < cnt; ++i) {
      for (std::size_t oc = 0; oc < out_channels_; ++oc) {
        const float* g_row = gout + (n0 + i) * g.out_plane + oc * g.hw;
        grad_bias_[oc] += std::accumulate(g_row, g_row + g.hw, 0.0F);
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

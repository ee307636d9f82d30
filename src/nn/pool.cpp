#include "nn/pool.h"

#include <bit>
#include <cstdint>
#include <cstring>
#include <limits>
#include <stdexcept>

namespace helcfl::nn {

using tensor::Shape;
using tensor::Tensor;

namespace {

// Every tap is a select, not a branch (the order of random activations is
// unpredictable).  Strict > keeps the first maximum on ties and never takes
// NaN; a window of only -inf/NaN outputs -inf and routes its gradient to
// its own first element.  The vector path below runs the same selects in
// the same (ky, kx) order per lane, so both paths give the same bits.

constexpr std::size_t kPoolLanes = 4;

#if defined(__clang__) || (defined(__GNUC__) && __GNUC__ >= 12)

constexpr bool kPoolPairs = true;
typedef float F4 __attribute__((vector_size(kPoolLanes * sizeof(float))));
typedef std::int32_t I4 __attribute__((vector_size(kPoolLanes * sizeof(std::int32_t))));
typedef std::size_t Z2 __attribute__((vector_size(2 * sizeof(std::size_t))));

/// 2x2/stride-2 windows of one output row, kPoolLanes outputs at a time:
/// loads de-interleave each input row into its even and odd columns, so
/// lane l holds taps (0,0), (0,1), (1,0), (1,1) of output l.  `row` is the
/// flat input index of the row's first window; `count` is a multiple of
/// kPoolLanes.  The winning tap becomes the flat argmax index.
void pool_pairs(const float* __restrict__ in, std::size_t row, std::size_t w_in,
                std::size_t count, float* __restrict__ out,
                std::size_t* __restrict__ arg) {
  const F4 neg_inf = F4{} - std::numeric_limits<float>::infinity();
  for (std::size_t ox = 0; ox < count; ox += kPoolLanes) {
    const float* r0 = in + row + 2 * ox;
    F4 taps[4];  // (ky, kx) order
    for (std::size_t ky = 0; ky < 2; ++ky) {
      F4 lo, hi;
      std::memcpy(&lo, r0 + ky * w_in, sizeof lo);
      std::memcpy(&hi, r0 + ky * w_in + kPoolLanes, sizeof hi);
      taps[2 * ky] = __builtin_shufflevector(lo, hi, 0, 2, 4, 6);
      taps[2 * ky + 1] = __builtin_shufflevector(lo, hi, 1, 3, 5, 7);
    }
    F4 best = neg_inf;
    I4 take[4];
    for (std::size_t t = 0; t < 4; ++t) {
      take[t] = taps[t] > best;
      best = take[t] ? taps[t] : best;
    }
    std::memcpy(out + ox, &best, sizeof best);
    if (arg == nullptr) continue;
    // The last tap taken wins.  It lies in the window's second row when tap
    // 2 or 3 was taken, and in its second column when tap 3 was, or tap 1
    // was and tap 2 was not.  Each 32-bit lane mask (0 or -1) is doubled
    // into a 64-bit one, two lanes per vector: index = window + 2l + col +
    // row * w_in.
    const I4 row1 = take[2] | take[3];
    const I4 col1 = take[3] | (take[1] & ~take[2]);
    const std::size_t window = row + 2 * ox;
    const Z2 r_lo = std::bit_cast<Z2>(__builtin_shufflevector(row1, row1, 0, 0, 1, 1));
    const Z2 r_hi = std::bit_cast<Z2>(__builtin_shufflevector(row1, row1, 2, 2, 3, 3));
    const Z2 c_lo = std::bit_cast<Z2>(__builtin_shufflevector(col1, col1, 0, 0, 1, 1));
    const Z2 c_hi = std::bit_cast<Z2>(__builtin_shufflevector(col1, col1, 2, 2, 3, 3));
    const Z2 lo = (Z2{0, 2} + window) - c_lo + (r_lo & w_in);
    const Z2 hi = (Z2{4, 6} + window) - c_hi + (r_hi & w_in);
    std::memcpy(arg + ox, &lo, sizeof lo);
    std::memcpy(arg + ox + 2, &hi, sizeof hi);
  }
}

#else  // no __builtin_shufflevector: every window takes the general loop

constexpr bool kPoolPairs = false;
void pool_pairs(const float*, std::size_t, std::size_t, std::size_t, float*,
                std::size_t*) {}

#endif

}  // namespace

MaxPool2D::MaxPool2D(std::size_t kernel_size, std::size_t stride)
    : kernel_(kernel_size), stride_(stride) {
  if (kernel_size == 0 || stride == 0) {
    throw std::invalid_argument("MaxPool2D: kernel and stride must be positive");
  }
}

Tensor MaxPool2D::forward(const Tensor& input, bool training) {
  const Shape& s = input.shape();
  if (s.rank() != 4) {
    throw std::invalid_argument("MaxPool2D::forward: expected rank-4 input, got " +
                                s.to_string());
  }
  const std::size_t batch = s[0];
  const std::size_t channels = s[1];
  const std::size_t h_in = s[2];
  const std::size_t w_in = s[3];
  if (h_in < kernel_ || w_in < kernel_) {
    throw std::invalid_argument("MaxPool2D::forward: input " + s.to_string() +
                                " smaller than window " + std::to_string(kernel_));
  }
  const std::size_t h_out = (h_in - kernel_) / stride_ + 1;
  const std::size_t w_out = (w_in - kernel_) / stride_ + 1;

  Tensor output(Shape{batch, channels, h_out, w_out});
  if (training) {
    input_shape_ = s;
    argmax_.resize(output.size());
  }
  const float* in = input.data().data();
  float* __restrict__ out = output.data().data();
  std::size_t* __restrict__ arg = training ? argmax_.data() : nullptr;
  // 2x2 windows at stride 2 (small_cnn's pool) move kPoolLanes outputs at a
  // time; other shapes and the columns past a row's last whole group take
  // the general loop.
  const bool pairs = kPoolPairs && kernel_ == 2 && stride_ == 2;
  const std::size_t w_vec = pairs ? w_out - w_out % kPoolLanes : 0;
  std::size_t out_i = 0;
  for (std::size_t plane = 0; plane < batch * channels; ++plane) {
    const std::size_t plane_base = plane * h_in * w_in;
    for (std::size_t oy = 0; oy < h_out; ++oy) {
      const std::size_t row = plane_base + oy * stride_ * w_in;
      if (w_vec > 0) {
        pool_pairs(in, row, w_in, w_vec, out + out_i, arg ? arg + out_i : nullptr);
        out_i += w_vec;
      }
      for (std::size_t ox = w_vec; ox < w_out; ++ox, ++out_i) {
        const std::size_t window = row + ox * stride_;
        float best = -std::numeric_limits<float>::infinity();
        std::size_t best_index = window;
        for (std::size_t ky = 0; ky < kernel_; ++ky) {
          for (std::size_t kx = 0; kx < kernel_; ++kx) {
            const std::size_t flat = window + ky * w_in + kx;
            const float v = in[flat];
            const bool take = v > best;
            best = take ? v : best;
            best_index = take ? flat : best_index;
          }
        }
        out[out_i] = best;
        if (arg) arg[out_i] = best_index;
      }
    }
  }
  return output;
}

Tensor MaxPool2D::backward(const Tensor& grad_output) {
  if (input_shape_.rank() != 4) {
    throw std::logic_error("MaxPool2D::backward: requires a training forward()");
  }
  const std::size_t h_out = (input_shape_[2] - kernel_) / stride_ + 1;
  const std::size_t w_out = (input_shape_[3] - kernel_) / stride_ + 1;
  tensor::require_same_shape(grad_output.shape(),
                             {input_shape_[0], input_shape_[1], h_out, w_out},
                             "MaxPool2D::backward: grad_output vs forward output");
  Tensor grad_input(input_shape_);
  for (std::size_t i = 0; i < grad_output.size(); ++i) {
    grad_input[argmax_[i]] += grad_output[i];
  }
  return grad_input;
}

std::string MaxPool2D::name() const {
  return "MaxPool2D(k=" + std::to_string(kernel_) + ", s=" + std::to_string(stride_) +
         ")";
}

Tensor GlobalAvgPool2D::forward(const Tensor& input, bool training) {
  const Shape& s = input.shape();
  if (s.rank() != 4) {
    throw std::invalid_argument("GlobalAvgPool2D::forward: expected rank-4, got " +
                                s.to_string());
  }
  if (training) input_shape_ = s;
  const std::size_t batch = s[0];
  const std::size_t channels = s[1];
  const std::size_t area = s[2] * s[3];
  Tensor output(Shape{batch, channels});
  // Each (sample, channel) plane is contiguous.  Four planes are summed at
  // a time as independent chains, so their adds overlap instead of each
  // waiting on the last; every plane's sum keeps its ascending order.
  const std::size_t planes = batch * channels;
  const double count = static_cast<double>(area);
  const float* __restrict__ in = input.data().data();
  float* __restrict__ out = output.data().data();
  std::size_t p = 0;
  for (; p + 4 <= planes; p += 4) {
    const float* __restrict__ x = in + p * area;
    double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
    for (std::size_t i = 0; i < area; ++i) {
      s0 += x[i];
      s1 += x[area + i];
      s2 += x[2 * area + i];
      s3 += x[3 * area + i];
    }
    out[p] = static_cast<float>(s0 / count);
    out[p + 1] = static_cast<float>(s1 / count);
    out[p + 2] = static_cast<float>(s2 / count);
    out[p + 3] = static_cast<float>(s3 / count);
  }
  for (; p < planes; ++p) {
    const float* __restrict__ x = in + p * area;
    double sum = 0.0;
    for (std::size_t i = 0; i < area; ++i) sum += x[i];
    out[p] = static_cast<float>(sum / count);
  }
  return output;
}

Tensor GlobalAvgPool2D::backward(const Tensor& grad_output) {
  if (input_shape_.rank() != 4) {
    throw std::logic_error("GlobalAvgPool2D::backward: requires a training forward()");
  }
  const std::size_t batch = input_shape_[0];
  const std::size_t channels = input_shape_[1];
  const std::size_t area = input_shape_[2] * input_shape_[3];
  tensor::require_same_shape(grad_output.shape(), {batch, channels},
                             "GlobalAvgPool2D::backward: grad_output vs forward output");
  Tensor grad_input(input_shape_);
  const float inv_area = 1.0F / static_cast<float>(area);
  for (std::size_t n = 0; n < batch; ++n) {
    for (std::size_t c = 0; c < channels; ++c) {
      const float g = grad_output.at(n, c) * inv_area;
      const std::size_t base = (n * channels + c) * area;
      for (std::size_t i = 0; i < area; ++i) grad_input[base + i] = g;
    }
  }
  return grad_input;
}

}  // namespace helcfl::nn

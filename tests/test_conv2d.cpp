#include "nn/conv2d.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "gradcheck.h"
#include "nn/serialize.h"
#include "oracles/explicit_conv.h"
#include "tensor/ops.h"
#include "util/rng.h"

namespace helcfl::nn {
namespace {

using tensor::Shape;
using tensor::Tensor;

TEST(Conv2D, OutputShapeNoPadding) {
  util::Rng rng(1);
  Conv2D conv(3, 8, /*kernel_size=*/3, /*stride=*/1, /*padding=*/0, rng);
  const Tensor y = conv.forward(Tensor(Shape{2, 3, 8, 8}), false);
  EXPECT_EQ(y.shape(), Shape({2, 8, 6, 6}));
}

TEST(Conv2D, OutputShapeSamePadding) {
  util::Rng rng(1);
  Conv2D conv(3, 4, 3, 1, 1, rng);
  const Tensor y = conv.forward(Tensor(Shape{1, 3, 8, 8}), false);
  EXPECT_EQ(y.shape(), Shape({1, 4, 8, 8}));
}

TEST(Conv2D, OutputShapeStride2) {
  util::Rng rng(1);
  Conv2D conv(1, 1, 3, 2, 1, rng);
  const Tensor y = conv.forward(Tensor(Shape{1, 1, 8, 8}), false);
  EXPECT_EQ(y.shape(), Shape({1, 1, 4, 4}));
}

TEST(Conv2D, RejectsWrongChannelCount) {
  util::Rng rng(1);
  Conv2D conv(3, 4, 3, 1, 1, rng);
  EXPECT_THROW(conv.forward(Tensor(Shape{1, 2, 8, 8}), false), std::invalid_argument);
}

TEST(Conv2D, RejectsTooSmallInput) {
  util::Rng rng(1);
  Conv2D conv(1, 1, 5, 1, 0, rng);
  EXPECT_THROW(conv.forward(Tensor(Shape{1, 1, 3, 3}), false), std::invalid_argument);
}

TEST(Conv2D, RejectsZeroStride) {
  util::Rng rng(1);
  EXPECT_THROW(Conv2D(1, 1, 3, 0, 0, rng), std::invalid_argument);
}

TEST(Conv2D, IdentityKernelPassesThrough) {
  util::Rng rng(2);
  Conv2D conv(1, 1, 1, 1, 0, rng);
  load_parameters(conv, std::vector<float>{1.0F, 0.0F});  // weight=1, bias=0
  const Tensor x = testing::random_input(Shape{1, 1, 4, 4}, 3);
  const Tensor y = conv.forward(x, false);
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_FLOAT_EQ(y[i], x[i]);
}

TEST(Conv2D, BoxKernelComputesNeighborhoodSum) {
  util::Rng rng(4);
  Conv2D conv(1, 1, 3, 1, 0, rng);
  std::vector<float> weights(10, 1.0F);
  weights[9] = 0.0F;  // bias
  load_parameters(conv, weights);
  Tensor x(Shape{1, 1, 3, 3});
  x.fill(2.0F);
  const Tensor y = conv.forward(x, false);
  EXPECT_EQ(y.shape(), Shape({1, 1, 1, 1}));
  EXPECT_FLOAT_EQ(y[0], 18.0F);
}

TEST(Conv2D, BiasIsAddedPerOutputChannel) {
  util::Rng rng(5);
  Conv2D conv(1, 2, 1, 1, 0, rng);
  load_parameters(conv, std::vector<float>{0.0F, 0.0F, 3.0F, -2.0F});
  const Tensor y = conv.forward(Tensor(Shape{1, 1, 2, 2}), false);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_FLOAT_EQ(y.at(0, 0, i / 2, i % 2), 3.0F);
    EXPECT_FLOAT_EQ(y.at(0, 1, i / 2, i % 2), -2.0F);
  }
}

TEST(Conv2D, PaddingContributesZeros) {
  util::Rng rng(6);
  Conv2D conv(1, 1, 3, 1, 1, rng);
  std::vector<float> weights(10, 1.0F);
  weights[9] = 0.0F;
  load_parameters(conv, weights);
  Tensor x(Shape{1, 1, 3, 3});
  x.fill(1.0F);
  const Tensor y = conv.forward(x, false);
  EXPECT_FLOAT_EQ(y.at(0, 0, 1, 1), 9.0F);  // center: full window
  EXPECT_FLOAT_EQ(y.at(0, 0, 0, 0), 4.0F);  // corner: 2x2 valid window
  EXPECT_FLOAT_EQ(y.at(0, 0, 0, 1), 6.0F);  // edge: 2x3 valid window
}

TEST(Conv2D, GradientCheckNoPadding) {
  util::Rng rng(7);
  Conv2D conv(2, 3, 3, 1, 0, rng);
  testing::check_gradients(conv, testing::random_input(Shape{2, 2, 5, 5}, 8));
}

TEST(Conv2D, GradientCheckWithPadding) {
  util::Rng rng(9);
  Conv2D conv(2, 2, 3, 1, 1, rng);
  testing::check_gradients(conv, testing::random_input(Shape{1, 2, 4, 4}, 10));
}

TEST(Conv2D, GradientCheckStride2) {
  util::Rng rng(11);
  Conv2D conv(1, 2, 3, 2, 1, rng);
  testing::check_gradients(conv, testing::random_input(Shape{1, 1, 6, 6}, 12));
}

TEST(Conv2D, GradientCheck1x1) {
  util::Rng rng(13);
  Conv2D conv(3, 2, 1, 1, 0, rng);
  testing::check_gradients(conv, testing::random_input(Shape{2, 3, 3, 3}, 14));
}

// ---------------------------------------------------------------------------
// im2col + GEMM against a direct 7-loop convolution reference.

/// Naive direct convolution: the definition the GEMM lowering must match.
Tensor direct_conv(const Tensor& x, std::span<const float> weight,
                   std::span<const float> bias, std::size_t in_ch,
                   std::size_t out_ch, std::size_t k, std::size_t stride,
                   std::size_t pad) {
  const std::size_t batch = x.shape()[0];
  const std::size_t h_in = x.shape()[2];
  const std::size_t w_in = x.shape()[3];
  const std::size_t h_out = (h_in + 2 * pad - k) / stride + 1;
  const std::size_t w_out = (w_in + 2 * pad - k) / stride + 1;
  Tensor y(Shape{batch, out_ch, h_out, w_out});
  for (std::size_t n = 0; n < batch; ++n) {
    for (std::size_t oc = 0; oc < out_ch; ++oc) {
      for (std::size_t oy = 0; oy < h_out; ++oy) {
        for (std::size_t ox = 0; ox < w_out; ++ox) {
          double sum = bias[oc];
          for (std::size_t ic = 0; ic < in_ch; ++ic) {
            for (std::size_t ky = 0; ky < k; ++ky) {
              for (std::size_t kx = 0; kx < k; ++kx) {
                const std::size_t iy = oy * stride + ky;
                const std::size_t ix = ox * stride + kx;
                if (iy < pad || ix < pad) continue;
                if (iy - pad >= h_in || ix - pad >= w_in) continue;
                sum += static_cast<double>(x.at(n, ic, iy - pad, ix - pad)) *
                       weight[((oc * in_ch + ic) * k + ky) * k + kx];
              }
            }
          }
          y.at(n, oc, oy, ox) = static_cast<float>(sum);
        }
      }
    }
  }
  return y;
}

struct ConvConfig {
  std::size_t in_ch, out_ch, k, stride, pad, h, w, batch;
};

TEST(Conv2D, MatchesDirectConvolutionReference) {
  const ConvConfig configs[] = {
      {1, 1, 3, 1, 0, 5, 5, 1},   // minimal valid conv
      {3, 8, 3, 1, 1, 8, 8, 2},   // same-padding, multi-channel, batch
      {2, 4, 3, 2, 1, 9, 7, 2},   // stride 2, non-square input
      {2, 3, 5, 1, 2, 7, 10, 1},  // large kernel, padding 2, non-square
      {4, 2, 1, 1, 0, 6, 6, 3},   // 1x1 pointwise
      {1, 2, 3, 3, 1, 11, 8, 1},  // stride 3
  };
  std::size_t seed = 20;
  for (const ConvConfig& cfg : configs) {
    util::Rng rng(seed++);
    Conv2D conv(cfg.in_ch, cfg.out_ch, cfg.k, cfg.stride, cfg.pad, rng);
    const std::vector<float> params = extract_parameters(conv);
    const std::size_t wsize = cfg.out_ch * cfg.in_ch * cfg.k * cfg.k;
    const std::span<const float> weight(params.data(), wsize);
    const std::span<const float> bias(params.data() + wsize, cfg.out_ch);

    const Tensor x =
        testing::random_input(Shape{cfg.batch, cfg.in_ch, cfg.h, cfg.w}, seed++);
    const Tensor got = conv.forward(x, false);
    const Tensor want = direct_conv(x, weight, bias, cfg.in_ch, cfg.out_ch,
                                    cfg.k, cfg.stride, cfg.pad);
    ASSERT_EQ(got.shape(), want.shape());
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_NEAR(got[i], want[i], 1e-4)
          << "mismatch at flat index " << i << " for config in_ch=" << cfg.in_ch
          << " out_ch=" << cfg.out_ch << " k=" << cfg.k << " s=" << cfg.stride
          << " p=" << cfg.pad << " h=" << cfg.h << " w=" << cfg.w;
    }
  }
}

TEST(Conv2D, GradientCheckStride2Pad2NonSquare) {
  util::Rng rng(31);
  Conv2D conv(2, 2, 3, 2, 2, rng);
  testing::check_gradients(conv, testing::random_input(Shape{1, 2, 5, 7}, 32));
}

TEST(Conv2D, GradientCheckKernel5) {
  util::Rng rng(33);
  Conv2D conv(1, 2, 5, 1, 2, rng);
  testing::check_gradients(conv, testing::random_input(Shape{1, 1, 6, 6}, 34));
}

TEST(Conv2D, ScratchIsReusedAcrossSteadyStateSteps) {
  util::Rng rng(35);
  Conv2D conv(3, 8, 3, 1, 1, rng);
  const Tensor x = testing::random_input(Shape{2, 3, 8, 8}, 36);
  // Warm-up grows the column scratch to this shape; afterwards repeated
  // forward/backward passes must not reallocate it.
  Tensor y = conv.forward(x, true);
  conv.backward(y);
  const std::uint64_t before = tensor::scratch_realloc_count();
  for (int step = 0; step < 4; ++step) {
    y = conv.forward(x, true);
    conv.backward(y);
  }
  EXPECT_EQ(tensor::scratch_realloc_count(), before)
      << "Conv2D must not allocate scratch in steady state";
}

// ---------------------------------------------------------------------------
// Chunked lowering against one-sample batches.  Forward and the input
// gradient batch several samples into one GEMM; the reference runs the same
// layer on one single-sample batch at a time, with the parameter gradients
// accumulating across its backward calls in sample order.  Every tensor
// must match bit for bit.

std::vector<std::uint32_t> bits(std::span<const float> values) {
  std::vector<std::uint32_t> out(values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    out[i] = std::bit_cast<std::uint32_t>(values[i]);
  }
  return out;
}

/// Samples [n, n+1) of an NCHW tensor as a batch of one.
Tensor sample(const Tensor& t, std::size_t n) {
  const std::size_t plane = t.size() / t.shape()[0];
  const auto first = t.data().begin() + static_cast<std::ptrdiff_t>(n * plane);
  return Tensor(Shape{1, t.shape()[1], t.shape()[2], t.shape()[3]},
                std::vector<float>(first, first + static_cast<std::ptrdiff_t>(plane)));
}

TEST(Conv2D, ChunkedBatchMatchesOneSampleBatchesBitwise) {
  const ConvConfig configs[] = {
      // small_cnn conv1: 64 positions, 4 samples per chunk.
      {3, 8, 3, 1, 1, 8, 8, 1},
      {3, 8, 3, 1, 1, 8, 8, 5},
      {3, 8, 3, 1, 1, 8, 8, 67},
      // small_cnn conv2: 16 positions, 16 samples per chunk.
      {8, 16, 3, 1, 1, 4, 4, 5},
      {8, 16, 3, 1, 1, 4, 4, 67},
      {2, 4, 3, 2, 0, 9, 7, 67},   // stride 2, no padding
      {4, 8, 1, 1, 0, 4, 4, 67},   // 1x1 kernel (Fire squeeze/expand)
      {3, 4, 3, 1, 1, 32, 32, 5},  // 1024 positions: one sample per chunk
  };
  std::uint64_t seed = 40;
  for (const ConvConfig& cfg : configs) {
    SCOPED_TRACE("in_ch=" + std::to_string(cfg.in_ch) + " k=" +
                 std::to_string(cfg.k) + " s=" + std::to_string(cfg.stride) +
                 " p=" + std::to_string(cfg.pad) + " h=" + std::to_string(cfg.h) +
                 " batch=" + std::to_string(cfg.batch));
    util::Rng rng(seed++);
    Conv2D conv(cfg.in_ch, cfg.out_ch, cfg.k, cfg.stride, cfg.pad, rng);
    Conv2D reference(conv);
    const Tensor x =
        testing::random_input(Shape{cfg.batch, cfg.in_ch, cfg.h, cfg.w}, seed++);
    const Tensor y = conv.forward(x, true);
    const Tensor dy = testing::random_input(y.shape(), seed++);
    const Tensor dx = conv.backward(dy);

    std::vector<float> ref_y;
    std::vector<float> ref_dx;
    for (std::size_t n = 0; n < cfg.batch; ++n) {
      const Tensor y_n = reference.forward(sample(x, n), true);
      ref_y.insert(ref_y.end(), y_n.data().begin(), y_n.data().end());
      const Tensor dx_n = reference.backward(sample(dy, n));
      ref_dx.insert(ref_dx.end(), dx_n.data().begin(), dx_n.data().end());
    }
    EXPECT_EQ(bits(y.data()), bits(ref_y)) << "forward output";
    EXPECT_EQ(bits(dx.data()), bits(ref_dx)) << "grad_input";
    const std::vector<ParamRef> got = conv.params();
    const std::vector<ParamRef> want = reference.params();
    EXPECT_EQ(bits(got[0].grad), bits(want[0].grad)) << "grad_weight";
    EXPECT_EQ(bits(got[1].grad), bits(want[1].grad)) << "grad_bias";
  }
}

// ---------------------------------------------------------------------------
// Implicit GEMM against the explicit-panel oracle (tests/oracles/
// explicit_conv): forward output, grad_W, grad_b and grad_input must match
// bit for bit, for backward() and for the parameter-only accumulate_grads(),
// with weight prepacking on and off and with 1 and 4 kernel threads.

/// Restores the process-wide kernel knobs a test changes.
struct KernelKnobs {
  const std::size_t threads = tensor::kernel_threads();
  const bool prepack = tensor::weight_prepack_enabled();
  ~KernelKnobs() {
    tensor::set_kernel_threads(threads);
    tensor::set_weight_prepack(prepack);
  }
};

TEST(Conv2D, ImplicitGemmMatchesExplicitPanelOracleBitwise) {
  std::vector<ConvConfig> configs;
  for (const std::size_t batch : {1, 5, 40, 67}) {
    configs.push_back({3, 8, 3, 1, 1, 8, 8, batch});   // small_cnn conv1
    configs.push_back({8, 16, 3, 1, 1, 4, 4, batch});  // small_cnn conv2
  }
  configs.push_back({2, 4, 3, 2, 0, 9, 7, 7});    // stride 2, no padding
  configs.push_back({1, 2, 3, 3, 1, 11, 8, 6});   // stride 3
  configs.push_back({2, 3, 5, 1, 2, 7, 10, 9});   // 5x5, padding 2, non-square
  configs.push_back({4, 8, 1, 1, 0, 4, 4, 21});   // 1x1 (Fire squeeze/expand)
  configs.push_back({3, 4, 3, 1, 1, 32, 32, 3});  // hw = 1024: four k-blocks a sample
  // 192 output channels: the GEMMs are large enough to shard their rows
  // across the kernel pool.
  configs.push_back({16, 192, 3, 1, 1, 16, 16, 2});
  const KernelKnobs restore;
  std::uint64_t seed = 300;
  for (const ConvConfig& cfg : configs) {
    SCOPED_TRACE("in_ch=" + std::to_string(cfg.in_ch) + " out_ch=" +
                 std::to_string(cfg.out_ch) + " k=" + std::to_string(cfg.k) +
                 " s=" + std::to_string(cfg.stride) + " p=" + std::to_string(cfg.pad) +
                 " h=" + std::to_string(cfg.h) + " w=" + std::to_string(cfg.w) +
                 " batch=" + std::to_string(cfg.batch));
    util::Rng rng(seed++);
    Conv2D conv(cfg.in_ch, cfg.out_ch, cfg.k, cfg.stride, cfg.pad, rng);
    const std::vector<float> params = extract_parameters(conv);
    const std::size_t wsize = cfg.out_ch * cfg.in_ch * cfg.k * cfg.k;
    const Tensor x =
        testing::random_input(Shape{cfg.batch, cfg.in_ch, cfg.h, cfg.w}, seed++);
    const Tensor dy = testing::random_input(
        Shape{cfg.batch, cfg.out_ch, conv.output_extent(cfg.h), conv.output_extent(cfg.w)},
        seed++);
    const ExplicitConvResult want = explicit_conv(
        {cfg.in_ch, cfg.out_ch, cfg.k, cfg.stride, cfg.pad},
        std::span<const float>(params.data(), wsize),
        std::span<const float>(params.data() + wsize, cfg.out_ch), x, dy);
    for (const std::size_t threads : {1, 4}) {
      for (const bool prepack : {true, false}) {
        SCOPED_TRACE("kernel_threads=" + std::to_string(threads) +
                     " prepack=" + std::to_string(prepack));
        tensor::set_kernel_threads(threads);
        tensor::set_weight_prepack(prepack);
        for (const bool params_only : {false, true}) {
          conv.zero_grad();
          const Tensor y = conv.forward(x, true);
          EXPECT_EQ(bits(y.data()), bits(want.output.data())) << "forward output";
          if (params_only) {
            conv.accumulate_grads(dy);
          } else {
            const Tensor dx = conv.backward(dy);
            EXPECT_EQ(bits(dx.data()), bits(want.grad_input.data())) << "grad_input";
          }
          const std::vector<ParamRef> got = conv.params();
          EXPECT_EQ(bits(got[0].grad), bits(want.grad_weight))
              << "grad_weight, params_only=" << params_only;
          EXPECT_EQ(bits(got[1].grad), bits(want.grad_bias))
              << "grad_bias, params_only=" << params_only;
        }
      }
    }
  }
}

TEST(Conv2D, Col2imRowPiecesMatchExplicitPanelOracleBitwise) {
  // Stride-1 rows fold into the input gradient in 8-, 4- and 1-float
  // pieces: every row width from 1 to 17 takes each mix of them, with and
  // without the padded staging buffer.
  std::uint64_t seed = 500;
  for (const std::size_t pad : {0, 1}) {
    for (std::size_t w_out = 1; w_out <= 17; ++w_out) {
      const ConvConfig cfg{2, 3, 3, 1, pad, 4, w_out + 2 - 2 * pad, 3};
      SCOPED_TRACE("pad=" + std::to_string(pad) + " w_out=" + std::to_string(w_out));
      util::Rng rng(seed++);
      Conv2D conv(cfg.in_ch, cfg.out_ch, cfg.k, cfg.stride, cfg.pad, rng);
      ASSERT_EQ(conv.output_extent(cfg.w), w_out);
      const std::vector<float> params = extract_parameters(conv);
      const std::size_t wsize = cfg.out_ch * cfg.in_ch * cfg.k * cfg.k;
      const Tensor x =
          testing::random_input(Shape{cfg.batch, cfg.in_ch, cfg.h, cfg.w}, seed++);
      const Tensor dy = testing::random_input(
          Shape{cfg.batch, cfg.out_ch, conv.output_extent(cfg.h), w_out}, seed++);
      const ExplicitConvResult want = explicit_conv(
          {cfg.in_ch, cfg.out_ch, cfg.k, cfg.stride, cfg.pad},
          std::span<const float>(params.data(), wsize),
          std::span<const float>(params.data() + wsize, cfg.out_ch), x, dy);
      (void)conv.forward(x, true);
      EXPECT_EQ(bits(conv.backward(dy).data()), bits(want.grad_input.data()));
    }
  }
}

// ---------------------------------------------------------------------------
// backward() argument checks hold in every build type.

TEST(Conv2D, BackwardWithoutTrainingForwardThrows) {
  util::Rng rng(17);
  Conv2D conv(3, 4, 3, 1, 1, rng);
  const Tensor dy(Shape{2, 4, 8, 8});
  EXPECT_THROW(conv.backward(dy), std::logic_error);
  EXPECT_THROW(conv.accumulate_grads(dy), std::logic_error);
  // An inference forward caches nothing either.
  (void)conv.forward(Tensor(Shape{2, 3, 8, 8}), false);
  EXPECT_THROW(conv.backward(dy), std::logic_error);
}

TEST(Conv2D, BackwardRejectsMismatchedGradShapeNamingBoth) {
  util::Rng rng(18);
  Conv2D conv(3, 4, 3, 1, 1, rng);
  (void)conv.forward(Tensor(Shape{2, 3, 8, 8}), true);
  for (const Shape& bad : {Shape{3, 4, 8, 8}, Shape{2, 4, 7, 8}, Shape{2, 5, 8, 8},
                           Shape{2, 4, 64}}) {
    SCOPED_TRACE(bad.to_string());
    try {
      (void)conv.backward(Tensor(bad));
      ADD_FAILURE() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(bad.to_string()), std::string::npos) << e.what();
      EXPECT_NE(std::string(e.what()).find("[2, 4, 8, 8]"), std::string::npos) << e.what();
    }
    EXPECT_THROW(conv.accumulate_grads(Tensor(bad)), std::invalid_argument);
  }
  // The layer is still usable with the right gradient.
  EXPECT_NO_THROW((void)conv.backward(Tensor(Shape{2, 4, 8, 8})));
}

TEST(Conv2D, OutputExtentFormula) {
  util::Rng rng(15);
  const Conv2D conv(1, 1, 3, 2, 1, rng);
  EXPECT_EQ(conv.output_extent(8), 4u);
  EXPECT_EQ(conv.output_extent(7), 4u);
}

TEST(Conv2D, NameContainsGeometry) {
  util::Rng rng(16);
  EXPECT_EQ(Conv2D(3, 8, 3, 1, 1, rng).name(), "Conv2D(3->8, k=3, s=1, p=1)");
}

}  // namespace
}  // namespace helcfl::nn

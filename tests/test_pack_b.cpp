// Every compiled kernel the CPU supports must pack B exactly as the scalar
// reference in tests/oracles/reference_pack does — the same floats in the
// same slots, zero padding included — for plain and transposed matrices and
// for both orientations of the im2col view.  The vector paths (register
// transposes, run copies) and the scalar tails all land here, whatever
// HELCFL_KERNEL_ISA says.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>
#include <string>
#include <vector>

#include "oracles/reference_pack.h"
#include "tensor/gemm_kernel.h"

namespace helcfl::tensor::detail {
namespace {

/// Distinct values with a -0.0 every 7th slot, so a pack that swaps two
/// elements or writes -0 where +0 belongs shows up in the bytes.
std::vector<float> distinct_values(std::size_t count) {
  std::vector<float> v(count);
  for (std::size_t i = 0; i < count; ++i) {
    v[i] = i % 7 == 3 ? -0.0F : static_cast<float>(i) * 0.25F - 100.0F;
  }
  return v;
}

void expect_pack_matches_reference(const GemmArgs& g, const std::string& what) {
  const std::vector<const KernelVTable*>& kernels = supported_kernel_vtables();
  ASSERT_FALSE(kernels.empty());
  for (const KernelVTable* vt : kernels) {
    const std::vector<float> want = reference_pack_b(g, vt->nr, vt->kc);
    ASSERT_EQ(want.size(), packed_b_size(*vt, g.k, g.n));
    // Poisoned with NaN bytes, so every slot the pack skips differs.
    std::vector<float> got(want.size());
    std::memset(got.data(), 0xFF, got.size() * sizeof(float));
    vt->pack_b(g, got.data());
    EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(float)), 0)
        << vt->isa << ": " << what;
  }
}

TEST(PackB, PlainAndTransposedMatricesMatchReference) {
  const std::size_t shapes[][2] = {{1, 1},   {3, 5},   {8, 8},    {7, 9},   {13, 30},
                                   {27, 64}, {192, 64}, {64, 192}, {257, 65}, {300, 33},
                                   {600, 17}, {31, 100}};
  for (const auto& [k, n] : shapes) {
    const std::vector<float> b = distinct_values(k * n);
    for (const bool trans : {false, true}) {
      for (const std::size_t seg : {std::size_t{0}, std::size_t{5}, std::size_t{100}}) {
        if (seg > k) continue;
        const GemmArgs g{.k = k, .n = n, .b = b.data(), .trans_b = trans, .k_segment = seg};
        expect_pack_matches_reference(
            g, "k=" + std::to_string(k) + " n=" + std::to_string(n) +
                   (trans ? " trans_b" : "") + " k_segment=" + std::to_string(seg));
      }
    }
  }
}

struct ViewCase {
  std::size_t channels, kernel, stride, h_out, w_out, cnt, border;
};

std::string describe(const ViewCase& c) {
  return "c=" + std::to_string(c.channels) + " k=" + std::to_string(c.kernel) +
         " s=" + std::to_string(c.stride) + " out=" + std::to_string(c.h_out) + "x" +
         std::to_string(c.w_out) + " cnt=" + std::to_string(c.cnt) +
         " border=" + std::to_string(c.border);
}

/// 1x1 and 3x3 kernels, stride 1 and 2, every w_out in 1..9, one and
/// several samples, tight and slack padded extents.
std::vector<ViewCase> view_cases() {
  std::vector<ViewCase> cases;
  for (const std::size_t channels : {1, 3, 8}) {
    for (const std::size_t kernel : {1, 3}) {
      for (const std::size_t stride : {1, 2}) {
        for (std::size_t w_out = 1; w_out <= 9; ++w_out) {
          for (const std::size_t h_out : {1, 4}) {
            for (const std::size_t cnt : {1, 5}) {
              cases.push_back({channels, kernel, stride, h_out, w_out, cnt, (w_out + cnt) % 3});
            }
          }
        }
      }
    }
  }
  // small_cnn's chunks: conv1 (3 -> 8, 8x8, 4 samples), conv2 (8 -> 16, 4x4, 16).
  cases.push_back({3, 3, 1, 8, 8, 4, 0});
  cases.push_back({8, 3, 1, 4, 4, 16, 0});
  return cases;
}

struct ViewImage {
  Im2colView view;
  std::vector<float> pixels;
};

ViewImage make_view(const ViewCase& c) {
  ViewImage out;
  const std::size_t hp = (c.h_out - 1) * c.stride + c.kernel + c.border;
  const std::size_t wp = (c.w_out - 1) * c.stride + c.kernel + c.border;
  const std::size_t sample_stride = c.channels * hp * wp + c.border;
  out.pixels = distinct_values(c.cnt * sample_stride);
  out.view = {out.pixels.data(), c.channels, c.kernel, c.stride, hp, wp,
              c.h_out, c.w_out, sample_stride};
  return out;
}

TEST(PackB, ForwardIm2colViewMatchesReference) {
  for (const ViewCase& c : view_cases()) {
    const ViewImage image = make_view(c);
    const GemmArgs g{.k = c.channels * c.kernel * c.kernel,
                     .n = c.cnt * c.h_out * c.w_out,
                     .b_view = &image.view};
    expect_pack_matches_reference(g, "forward view " + describe(c));
  }
}

TEST(PackB, WeightGradientIm2colViewMatchesReference) {
  for (const ViewCase& c : view_cases()) {
    const ViewImage image = make_view(c);
    const std::size_t hw = c.h_out * c.w_out;
    // Conv2D's weight gradient restarts k-blocks per sample (k_segment =
    // hw); the unsegmented pack covers blocks that straddle samples.
    for (const std::size_t seg : {hw, std::size_t{0}}) {
      const GemmArgs g{.k = c.cnt * hw,
                       .n = c.channels * c.kernel * c.kernel,
                       .trans_b = true,
                       .b_view = &image.view,
                       .k_segment = seg};
      expect_pack_matches_reference(
          g, "weight-gradient view " + describe(c) + " k_segment=" + std::to_string(seg));
    }
  }
}

}  // namespace
}  // namespace helcfl::tensor::detail

#include "tensor/ops.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "oracles/explicit_conv.h"
#include "tensor/gemm_kernel.h"
#include "util/rng.h"

namespace helcfl::tensor {
namespace {

TEST(Ops, AddInplace) {
  std::vector<float> y = {1, 2, 3};
  const std::vector<float> x = {10, 20, 30};
  add_inplace(y, x);
  EXPECT_EQ(y, (std::vector<float>{11, 22, 33}));
}

TEST(Ops, SubInplace) {
  std::vector<float> y = {10, 20, 30};
  const std::vector<float> x = {1, 2, 3};
  sub_inplace(y, x);
  EXPECT_EQ(y, (std::vector<float>{9, 18, 27}));
}

TEST(Ops, ScaleInplace) {
  std::vector<float> y = {1, -2, 3};
  scale_inplace(y, -2.0F);
  EXPECT_EQ(y, (std::vector<float>{-2, 4, -6}));
}

TEST(Ops, Axpy) {
  std::vector<float> y = {1, 1, 1};
  const std::vector<float> x = {1, 2, 3};
  axpy(0.5F, x, y);
  EXPECT_EQ(y, (std::vector<float>{1.5F, 2.0F, 2.5F}));
}

TEST(Ops, Dot) {
  const std::vector<float> a = {1, 2, 3};
  const std::vector<float> b = {4, 5, 6};
  EXPECT_DOUBLE_EQ(dot(a, b), 32.0);
}

TEST(Ops, SquaredNorm) {
  const std::vector<float> a = {3, 4};
  EXPECT_DOUBLE_EQ(squared_norm(a), 25.0);
}

TEST(Ops, GemmIdentity) {
  // A * I = A
  const std::vector<float> a = {1, 2, 3, 4, 5, 6};          // 2x3
  const std::vector<float> eye = {1, 0, 0, 0, 1, 0, 0, 0, 1};  // 3x3
  std::vector<float> c(6, -1.0F);
  gemm(2, 3, 3, a, eye, c);
  EXPECT_EQ(c, a);
}

TEST(Ops, GemmKnownProduct) {
  const std::vector<float> a = {1, 2, 3, 4};  // 2x2
  const std::vector<float> b = {5, 6, 7, 8};  // 2x2
  std::vector<float> c(4);
  gemm(2, 2, 2, a, b, c);
  EXPECT_EQ(c, (std::vector<float>{19, 22, 43, 50}));
}

TEST(Ops, GemmOverwritesOutput) {
  const std::vector<float> a = {1};
  const std::vector<float> b = {2};
  std::vector<float> c = {100};
  gemm(1, 1, 1, a, b, c);
  EXPECT_EQ(c[0], 2.0F);
}

TEST(Ops, GemmAccumulateAddsToOutput) {
  const std::vector<float> a = {1};
  const std::vector<float> b = {2};
  std::vector<float> c = {100};
  gemm_accumulate(1, 1, 1, a, b, c);
  EXPECT_EQ(c[0], 102.0F);
}

TEST(Ops, GemmAtBMatchesExplicitTranspose) {
  util::Rng rng(1);
  const std::size_t m = 4, k = 5, n = 3;
  std::vector<float> a_t(k * m);  // stores A as [k, m]; logical A^T is [m, k]... A^T[m,k] where A is [k,m]
  std::vector<float> b(k * n);
  for (auto& v : a_t) v = static_cast<float>(rng.normal());
  for (auto& v : b) v = static_cast<float>(rng.normal());

  // Reference: build A_explicit[m, k] with A_explicit[i][kk] = a_t[kk*m + i].
  std::vector<float> a_explicit(m * k);
  for (std::size_t kk = 0; kk < k; ++kk) {
    for (std::size_t i = 0; i < m; ++i) a_explicit[i * k + kk] = a_t[kk * m + i];
  }
  std::vector<float> expected(m * n);
  gemm(m, k, n, a_explicit, b, expected);

  std::vector<float> actual(m * n);
  gemm_at_b(m, k, n, a_t, b, actual);
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_NEAR(actual[i], expected[i], 1e-5F);
  }
}

TEST(Ops, GemmABtMatchesExplicitTranspose) {
  util::Rng rng(2);
  const std::size_t m = 3, k = 4, n = 5;
  std::vector<float> a(m * k);
  std::vector<float> b_t(n * k);  // B stored as [n, k]; logical B is [k, n]
  for (auto& v : a) v = static_cast<float>(rng.normal());
  for (auto& v : b_t) v = static_cast<float>(rng.normal());

  std::vector<float> b_explicit(k * n);
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t kk = 0; kk < k; ++kk) b_explicit[kk * n + j] = b_t[j * k + kk];
  }
  std::vector<float> expected(m * n);
  gemm(m, k, n, a, b_explicit, expected);

  std::vector<float> actual(m * n);
  gemm_a_bt(m, k, n, a, b_t, actual);
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_NEAR(actual[i], expected[i], 1e-5F);
  }
}

// ---------------------------------------------------------------------------
// Blocked-kernel validation: every GEMM variant against a naive reference,
// over shape sweeps that cross the micro-tile boundaries (generic 4x8,
// AVX2 6x16), plus the k=0 / m=1 / n=1 degenerate cases and checks that
// the kernels neither modify their inputs nor behave differently on a
// second identical call (bitwise determinism).

struct GemmCase {
  std::size_t m, k, n;
};

// Crosses both micro-tile geometries (4x8 and 6x16), the k-block boundary
// at 256, and the degenerate edges.
const GemmCase kSweep[] = {
    {1, 1, 1},   {1, 0, 1},    {1, 5, 1},    {1, 7, 23},  {2, 3, 2},
    {4, 8, 8},   {5, 9, 17},   {6, 16, 16},  {7, 17, 15}, {8, 300, 9},
    {13, 31, 29}, {16, 257, 33}, {31, 64, 1}, {64, 64, 64}, {97, 5, 41},
};

/// Naive double-precision reference for C = op(A)*op(B) [+ C0] [+ bias].
std::vector<float> reference_gemm(const GemmCase& c, std::span<const float> a,
                                  std::span<const float> b, bool trans_a,
                                  bool trans_b, const std::vector<float>* c0,
                                  const std::vector<float>* bias_rows,
                                  const std::vector<float>* bias_cols) {
  std::vector<float> out(c.m * c.n);
  for (std::size_t i = 0; i < c.m; ++i) {
    for (std::size_t j = 0; j < c.n; ++j) {
      double sum = 0.0;
      if (c0 != nullptr) sum = (*c0)[i * c.n + j];
      if (bias_rows != nullptr) sum += (*bias_rows)[i];
      if (bias_cols != nullptr) sum += (*bias_cols)[j];
      for (std::size_t kk = 0; kk < c.k; ++kk) {
        const float av = trans_a ? a[kk * c.m + i] : a[i * c.k + kk];
        const float bv = trans_b ? b[j * c.k + kk] : b[kk * c.n + j];
        sum += static_cast<double>(av) * bv;
      }
      out[i * c.n + j] = static_cast<float>(sum);
    }
  }
  return out;
}

std::vector<float> random_vec(std::size_t size, util::Rng& rng) {
  std::vector<float> v(size);
  for (auto& x : v) x = static_cast<float>(rng.normal());
  return v;
}

/// Error budget: float accumulation over k terms of N(0,1) products.
double tolerance_for(std::size_t k) {
  return 1e-5 * (std::sqrt(static_cast<double>(k)) + 1.0) * 8.0;
}

void expect_near_all(std::span<const float> actual, std::span<const float> expected,
                     double tol, const char* label, const GemmCase& c) {
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < actual.size(); ++i) {
    ASSERT_NEAR(actual[i], expected[i], tol)
        << label << " mismatch at " << i << " for m=" << c.m << " k=" << c.k
        << " n=" << c.n;
  }
}

TEST(OpsKernel, AllVariantsMatchNaiveReferenceAcrossShapeSweep) {
  util::Rng rng(0xBEEF);
  for (const GemmCase& c : kSweep) {
    const double tol = tolerance_for(c.k);
    const std::vector<float> a = random_vec(c.m * c.k, rng);       // [m,k]
    const std::vector<float> a_t = random_vec(c.k * c.m, rng);     // [k,m]
    const std::vector<float> b = random_vec(c.k * c.n, rng);       // [k,n]
    const std::vector<float> b_t = random_vec(c.n * c.k, rng);     // [n,k]
    const std::vector<float> bias_m = random_vec(c.m, rng);
    const std::vector<float> bias_n = random_vec(c.n, rng);
    const std::vector<float> seed_c = random_vec(c.m * c.n, rng);

    // Inputs must come back bit-identical: the kernels only read A/B.
    const auto a_copy = a;
    const auto b_copy = b;

    std::vector<float> out(c.m * c.n, -7.0F);
    gemm(c.m, c.k, c.n, a, b, out);
    expect_near_all(out, reference_gemm(c, a, b, false, false, nullptr, nullptr, nullptr),
                    tol, "gemm", c);

    std::vector<float> acc = seed_c;
    gemm_accumulate(c.m, c.k, c.n, a, b, acc);
    expect_near_all(acc, reference_gemm(c, a, b, false, false, &seed_c, nullptr, nullptr),
                    tol, "gemm_accumulate", c);

    std::vector<float> with_bias(c.m * c.n, -7.0F);
    gemm_bias_rows(c.m, c.k, c.n, a, b, bias_m, with_bias);
    expect_near_all(with_bias,
                    reference_gemm(c, a, b, false, false, nullptr, &bias_m, nullptr),
                    tol, "gemm_bias_rows", c);

    std::vector<float> at_b(c.m * c.n, -7.0F);
    gemm_at_b(c.m, c.k, c.n, a_t, b, at_b);
    expect_near_all(at_b, reference_gemm(c, a_t, b, true, false, nullptr, nullptr, nullptr),
                    tol, "gemm_at_b", c);

    std::vector<float> at_b_acc = seed_c;
    gemm_at_b_accumulate(c.m, c.k, c.n, a_t, b, at_b_acc);
    expect_near_all(at_b_acc,
                    reference_gemm(c, a_t, b, true, false, &seed_c, nullptr, nullptr),
                    tol, "gemm_at_b_accumulate", c);

    std::vector<float> a_bt(c.m * c.n, -7.0F);
    gemm_a_bt(c.m, c.k, c.n, a, b_t, a_bt);
    expect_near_all(a_bt, reference_gemm(c, a, b_t, false, true, nullptr, nullptr, nullptr),
                    tol, "gemm_a_bt", c);

    std::vector<float> a_bt_acc = seed_c;
    gemm_a_bt_accumulate(c.m, c.k, c.n, a, b_t, a_bt_acc);
    expect_near_all(a_bt_acc,
                    reference_gemm(c, a, b_t, false, true, &seed_c, nullptr, nullptr),
                    tol, "gemm_a_bt_accumulate", c);

    std::vector<float> a_bt_bias(c.m * c.n, -7.0F);
    gemm_a_bt_bias_cols(c.m, c.k, c.n, a, b_t, bias_n, a_bt_bias);
    expect_near_all(a_bt_bias,
                    reference_gemm(c, a, b_t, false, true, nullptr, nullptr, &bias_n),
                    tol, "gemm_a_bt_bias_cols", c);

    EXPECT_EQ(a, a_copy) << "gemm kernels must not modify A";
    EXPECT_EQ(b, b_copy) << "gemm kernels must not modify B";

    // Bitwise determinism: an identical second call reproduces every bit.
    std::vector<float> out2(c.m * c.n, 3.0F);
    gemm(c.m, c.k, c.n, a, b, out2);
    EXPECT_EQ(out, out2) << "gemm must be bitwise deterministic";
  }
}

TEST(OpsKernel, KZeroOverwritesWithZeroOrBias) {
  const std::vector<float> empty;
  const std::vector<float> bias = {5.0F, -1.0F};
  std::vector<float> c = {9.0F, 9.0F, 9.0F, 9.0F};
  gemm(2, 0, 2, empty, empty, c);
  EXPECT_EQ(c, (std::vector<float>{0, 0, 0, 0}));

  c = {9.0F, 9.0F, 9.0F, 9.0F};
  gemm_bias_rows(2, 0, 2, empty, empty, bias, c);
  EXPECT_EQ(c, (std::vector<float>{5.0F, 5.0F, -1.0F, -1.0F}));

  c = {9.0F, 9.0F, 9.0F, 9.0F};
  gemm_a_bt_bias_cols(2, 0, 2, empty, empty, bias, c);
  EXPECT_EQ(c, (std::vector<float>{5.0F, -1.0F, 5.0F, -1.0F}));

  c = {1.0F, 2.0F, 3.0F, 4.0F};
  gemm_accumulate(2, 0, 2, empty, empty, c);
  EXPECT_EQ(c, (std::vector<float>{1.0F, 2.0F, 3.0F, 4.0F}));
}

TEST(OpsKernel, KernelIsaIsReported) {
  const std::string_view isa = kernel_isa();
  EXPECT_TRUE(isa == "generic" || isa == "avx2_fma" || isa == "avx512") << isa;
}

// Products run on the calling thread: the stub kept for the frozen
// perfbench driver accepts its one valid count and rejects every other.
TEST(OpsKernel, SetKernelThreadsAcceptsOnlyOne) {
  EXPECT_NO_THROW(set_kernel_threads(1));
  EXPECT_THROW(set_kernel_threads(0), std::invalid_argument);
  EXPECT_THROW(set_kernel_threads(4), std::invalid_argument);
}

TEST(OpsKernel, ScratchIsReusedInSteadyState) {
  util::Rng rng(0xFEED);
  const std::size_t m = 48, k = 96, n = 56;
  const std::vector<float> a = random_vec(m * k, rng);
  const std::vector<float> b = random_vec(k * n, rng);
  std::vector<float> c(m * n);
  gemm(m, k, n, a, b, c);  // warm the packing buffers for this shape
  const std::uint64_t before = scratch_realloc_count();
  for (int i = 0; i < 5; ++i) gemm(m, k, n, a, b, c);
  EXPECT_EQ(scratch_realloc_count(), before)
      << "steady-state gemm must not grow scratch";
}

// ---------------------------------------------------------------------------
// GemmArgs::k_segment and Im2colView, the two engine features Conv2D's
// implicit GEMM rests on, against the public calls they replace.

std::vector<std::uint32_t> bits_of(std::span<const float> v) {
  std::vector<std::uint32_t> out(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) out[i] = std::bit_cast<std::uint32_t>(v[i]);
  return out;
}

/// Columns [begin, begin+count) of a row-major [rows, ld] matrix.
std::vector<float> columns(const std::vector<float>& m, std::size_t rows, std::size_t ld,
                           std::size_t begin, std::size_t count) {
  std::vector<float> out(rows * count);
  for (std::size_t r = 0; r < rows; ++r) {
    std::copy_n(m.begin() + static_cast<std::ptrdiff_t>(r * ld + begin), count,
                out.begin() + static_cast<std::ptrdiff_t>(r * count));
  }
  return out;
}

TEST(OpsKernel, KSegmentGemmEqualsPerSegmentAccumulateLoop) {
  util::Rng rng(0x5E6);
  const std::size_t m = 13, n = 37, segments = 3;
  // Shorter than, equal to and longer than one 256 k-block.
  for (const std::size_t seg : {64, 100, 256, 300, 600}) {
    SCOPED_TRACE("k_segment=" + std::to_string(seg));
    const std::size_t k = segments * seg;
    const std::vector<float> a = random_vec(m * k, rng);
    const std::vector<float> b = random_vec(k * n, rng);   // [k, n]
    const std::vector<float> bt = random_vec(n * k, rng);  // [n, k]
    const std::vector<float> c0 = random_vec(m * n, rng);
    std::vector<float> want = c0;
    std::vector<float> want_t = c0;
    for (std::size_t s = 0; s < segments; ++s) {
      const std::vector<float> a_s = columns(a, m, k, s * seg, seg);
      gemm_accumulate(m, seg, n, a_s,
                      std::span<const float>(b).subspan(s * seg * n, seg * n), want);
      gemm_a_bt_accumulate(m, seg, n, a_s, columns(bt, n, k, s * seg, seg), want_t);
    }
    std::vector<float> got = c0;
    std::vector<float> got_t = c0;
    detail::run_gemm({.m = m, .k = k, .n = n, .a = a.data(), .b = b.data(),
                      .c = got.data(), .accumulate = true, .k_segment = seg});
    detail::run_gemm({.m = m, .k = k, .n = n, .a = a.data(), .b = bt.data(),
                      .c = got_t.data(), .trans_b = true, .accumulate = true,
                      .k_segment = seg});
    EXPECT_EQ(bits_of(got), bits_of(want));
    EXPECT_EQ(bits_of(got_t), bits_of(want_t));
  }
}

TEST(OpsKernel, Im2colViewGemmEqualsExplicitPanelGemm) {
  struct Geom {
    std::size_t channels, kernel, stride, hp, wp, cnt;
  };
  const Geom geoms[] = {
      {3, 3, 1, 10, 10, 4},  // small_cnn conv1 chunk (8x8 map, padded)
      {8, 3, 1, 6, 6, 16},   // small_cnn conv2 chunk
      {2, 3, 2, 9, 7, 3},    // stride 2, non-square
      {1, 3, 3, 13, 10, 2},  // stride 3
      {2, 5, 1, 11, 14, 2},  // 5x5 kernel
      {4, 1, 1, 4, 4, 5},    // 1x1
      {3, 3, 1, 34, 34, 1},  // 1024 output positions: several k-blocks
  };
  util::Rng rng(0x1C0);
  const std::size_t m = 11;
  for (const Geom& g : geoms) {
    const std::size_t h_out = (g.hp - g.kernel) / g.stride + 1;
    const std::size_t w_out = (g.wp - g.kernel) / g.stride + 1;
    const std::size_t ckk = g.channels * g.kernel * g.kernel;
    const std::size_t cols = g.cnt * h_out * w_out;
    const std::size_t sample = g.channels * g.hp * g.wp;
    SCOPED_TRACE("channels=" + std::to_string(g.channels) + " k=" +
                 std::to_string(g.kernel) + " s=" + std::to_string(g.stride) +
                 " cols=" + std::to_string(cols));
    const std::vector<float> image = random_vec(g.cnt * sample, rng);
    std::vector<float> panel(ckk * cols);
    for (std::size_t i = 0; i < g.cnt; ++i) {
      nn::explicit_im2col(image.data() + i * sample, g.channels, g.kernel, g.stride,
                          g.hp, g.wp, h_out, w_out, cols,
                          panel.data() + i * h_out * w_out);
    }
    const detail::Im2colView view{image.data(), g.channels, g.kernel, g.stride, g.hp,
                                  g.wp, h_out, w_out, sample};
    // B = the panel [ckk, cols] (Conv2D forward).
    const std::vector<float> w = random_vec(m * ckk, rng);
    std::vector<float> want(m * cols);
    std::vector<float> got(m * cols);
    gemm(m, ckk, cols, w, panel, want);
    detail::run_gemm({.m = m, .k = ckk, .n = cols, .a = w.data(), .c = got.data(),
                      .b_view = &view});
    EXPECT_EQ(bits_of(got), bits_of(want)) << "forward orientation";
    // B = the panel's transpose [cols, ckk] (Conv2D weight gradient).
    const std::vector<float> gout = random_vec(m * cols, rng);
    std::vector<float> want_t(m * ckk);
    std::vector<float> got_t(m * ckk);
    gemm_a_bt(m, cols, ckk, gout, panel, want_t);
    detail::run_gemm({.m = m, .k = cols, .n = ckk, .a = gout.data(), .c = got_t.data(),
                      .trans_b = true, .b_view = &view});
    EXPECT_EQ(bits_of(got_t), bits_of(want_t)) << "transposed orientation";
  }
}

TEST(OpsKernel, FullTileStoresEqualOneColumnCallsBitwise) {
  // n = 3 * nr + 5 gives three full tiles, whose stores move whole vectors,
  // and a partial one; each one-column call takes the runtime-width store
  // of a partial tile.  k = 300 spans two k-blocks, so the first block's
  // overwrite-or-bias store and the later accumulate both run.  Every
  // element's reduction is the same either way, so the bits must be too.
  enum class Store { kOverwrite, kAccumulate, kBiasPerRow, kBiasPerCol };
  util::Rng rng(0x570);
  for (const detail::KernelVTable* vt : detail::supported_kernel_vtables()) {
    const std::size_t m = 2 * vt->mr + 3, k = 300, n = 3 * vt->nr + 5;
    const std::vector<float> a = random_vec(m * k, rng);
    const std::vector<float> b = random_vec(k * n, rng);
    const std::vector<float> c0 = random_vec(m * n, rng);
    const std::vector<float> bias_m = random_vec(m, rng);
    const std::vector<float> bias_n = random_vec(n, rng);
    for (const Store store : {Store::kOverwrite, Store::kAccumulate, Store::kBiasPerRow,
                              Store::kBiasPerCol}) {
      SCOPED_TRACE(std::string(vt->isa) + " store mode " +
                   std::to_string(static_cast<int>(store)));
      detail::GemmArgs args{.m = m, .k = k, .n = n, .a = a.data(), .b = b.data(),
                            .accumulate = store == Store::kAccumulate};
      if (store == Store::kBiasPerRow) args.bias = bias_m.data();
      if (store == Store::kBiasPerCol) {
        args.bias = bias_n.data();
        args.bias_per_col = true;
      }
      std::vector<float> got = c0;
      args.c = got.data();
      vt->gemm(args);
      std::vector<float> want = c0;
      for (std::size_t j = 0; j < n; ++j) {
        std::vector<float> b_col(k), c_col(m);
        for (std::size_t p = 0; p < k; ++p) b_col[p] = b[p * n + j];
        for (std::size_t i = 0; i < m; ++i) c_col[i] = c0[i * n + j];
        detail::GemmArgs col = args;
        col.n = 1;
        col.b = b_col.data();
        col.c = c_col.data();
        if (store == Store::kBiasPerCol) col.bias = bias_n.data() + j;
        vt->gemm(col);
        for (std::size_t i = 0; i < m; ++i) want[i * n + j] = c_col[i];
      }
      EXPECT_EQ(bits_of(got), bits_of(want));
    }
  }
}

TEST(OpsKernel, InPlaceLiveTilesEqualPackedRowProductsBitwise) {
  // The driver reads op(A) and a plain B where they lie and computes only an
  // edge tile's live rows and vectors.  The reference computes C one row at
  // a time: an m = 1 product on an exact-size copy of op(A)'s row and of
  // C's row, with B passed as trans_b over an explicit transpose, so the
  // driver packs every B panel (zero-padded) and each call runs one live
  // row.  The bits must agree for every m up to two row tiles and a row
  // tail, every n up to two panels and every vector tail (a last panel of
  // whole vectors is read in place, one with a partial vector is packed),
  // k across the 256 k-block with and without k_segment, trans_a and every
  // store mode.  A and B are sized exactly, so a read past their last row
  // or column is a sanitizer error; C sits between poisoned guards.
  enum class Store { kOverwrite, kAccumulate, kBiasPerRow, kBiasPerCol };
  constexpr std::size_t kGuard = 37;
  const float poison = std::bit_cast<float>(std::uint32_t{0x7FA5A5A5});  // a NaN
  util::Rng rng(0x1B7);
  const std::vector<float> pool = random_vec(2 * 300 * 67, rng);
  const auto take = [&pool](std::size_t count, std::size_t from) {
    return std::vector<float>(pool.begin() + static_cast<std::ptrdiff_t>(from),
                              pool.begin() + static_cast<std::ptrdiff_t>(from + count));
  };
  for (const detail::KernelVTable* vt : detail::supported_kernel_vtables()) {
    for (const std::size_t k : {std::size_t{1}, std::size_t{17}, std::size_t{300}}) {
      for (const std::size_t k_segment : {std::size_t{0}, std::size_t{16}}) {
        for (const bool trans_a : {false, true}) {
          for (std::size_t m = 1; m <= 2 * vt->mr + 1; ++m) {
            const std::vector<float> a = take(m * k, 3 * m);
            for (std::size_t n = 1; n <= 2 * vt->nr + 3; ++n) {
              const std::vector<float> b = take(k * n, 5 * n + 1);
              std::vector<float> bt(n * k);
              for (std::size_t p = 0; p < k; ++p) {
                for (std::size_t j = 0; j < n; ++j) bt[j * k + p] = b[p * n + j];
              }
              const std::vector<float> c0 = take(m * n, 7 * m + n);
              const std::vector<float> bias_m = take(m, n), bias_n = take(n, m);
              for (const Store store : {Store::kOverwrite, Store::kAccumulate,
                                        Store::kBiasPerRow, Store::kBiasPerCol}) {
                detail::GemmArgs args{.m = m, .k = k, .n = n, .a = a.data(),
                                      .b = b.data(), .trans_a = trans_a,
                                      .accumulate = store == Store::kAccumulate,
                                      .k_segment = k_segment};
                if (store == Store::kBiasPerRow) args.bias = bias_m.data();
                if (store == Store::kBiasPerCol) {
                  args.bias = bias_n.data();
                  args.bias_per_col = true;
                }
                std::vector<float> got(kGuard + m * n + kGuard, poison);
                std::copy(c0.begin(), c0.end(), got.begin() + kGuard);
                std::vector<float> want = got;
                args.c = got.data() + kGuard;
                vt->gemm(args);
                for (std::size_t i = 0; i < m; ++i) {
                  std::vector<float> a_row(k), c_row(n);
                  for (std::size_t p = 0; p < k; ++p) {
                    a_row[p] = trans_a ? a[p * m + i] : a[i * k + p];
                  }
                  std::copy_n(c0.begin() + static_cast<std::ptrdiff_t>(i * n), n,
                              c_row.begin());
                  detail::GemmArgs row = args;
                  row.m = 1;
                  row.a = a_row.data();
                  row.b = bt.data();
                  row.c = c_row.data();
                  row.trans_a = false;
                  row.trans_b = true;
                  if (store == Store::kBiasPerRow) row.bias = bias_m.data() + i;
                  vt->gemm(row);
                  std::copy(c_row.begin(), c_row.end(),
                            want.begin() + static_cast<std::ptrdiff_t>(kGuard + i * n));
                }
                const auto where = [&] {
                  return std::string(vt->isa) + " m=" + std::to_string(m) +
                         " n=" + std::to_string(n) + " k=" + std::to_string(k) +
                         " k_segment=" + std::to_string(k_segment) +
                         " trans_a=" + std::to_string(trans_a) +
                         " store=" + std::to_string(static_cast<int>(store));
                };
                for (std::size_t i = 0; i < kGuard; ++i) {
                  ASSERT_EQ(std::bit_cast<std::uint32_t>(got[i]),
                            std::bit_cast<std::uint32_t>(poison)) << where();
                  ASSERT_EQ(std::bit_cast<std::uint32_t>(got[kGuard + m * n + i]),
                            std::bit_cast<std::uint32_t>(poison)) << where();
                }
                ASSERT_EQ(bits_of(got), bits_of(want)) << where();
              }
            }
          }
        }
      }
    }
  }
}

// Every span entry point checks its sizes in every build (NDEBUG included)
// and throws before writing anything.  Each case passes one span a float
// short; without the check it would read or write one float past it.
namespace sizes {
constexpr std::size_t kM = 2, kK = 3, kN = 4;
const std::vector<float> kA(kM * kK, 1.0F), kB(kK * kN, 1.0F);
const std::vector<float> kBiasM(kM, 1.0F), kBiasN(kN, 1.0F);

std::vector<float> one_short(const std::vector<float>& v) {
  return std::vector<float>(v.begin(), v.end() - 1);
}

/// Runs `call` on C = [kM, kN] filled with 5 and requires a throw with C
/// untouched.
template <typename Call>
void expect_rejected(Call call, std::size_t c_size = kM * kN) {
  std::vector<float> c(c_size, 5.0F);
  EXPECT_THROW(call(std::span<float>(c)), std::invalid_argument);
  EXPECT_EQ(c, std::vector<float>(c_size, 5.0F)) << "wrote before rejecting";
}
}  // namespace sizes

TEST(OpsSizes, GemmRejectsShortC) {
  using namespace sizes;
  expect_rejected([](std::span<float> c) { gemm(kM, kK, kN, kA, kB, c); }, kM * kN - 1);
}

TEST(OpsSizes, GemmAccumulateRejectsShortA) {
  using namespace sizes;
  const std::vector<float> a = one_short(kA);
  expect_rejected([&](std::span<float> c) { gemm_accumulate(kM, kK, kN, a, kB, c); });
}

TEST(OpsSizes, GemmBiasRowsRejectsShortBias) {
  using namespace sizes;
  const std::vector<float> bias = one_short(kBiasM);
  expect_rejected([&](std::span<float> c) { gemm_bias_rows(kM, kK, kN, kA, kB, bias, c); });
}

TEST(OpsSizes, GemmAtBRejectsShortB) {
  using namespace sizes;
  const std::vector<float> b = one_short(kB);
  expect_rejected([&](std::span<float> c) { gemm_at_b(kM, kK, kN, kA, b, c); });
}

TEST(OpsSizes, GemmAtBAccumulateRejectsShortC) {
  using namespace sizes;
  expect_rejected([](std::span<float> c) { gemm_at_b_accumulate(kM, kK, kN, kA, kB, c); },
                  kM * kN - 1);
}

TEST(OpsSizes, GemmABtRejectsShortB) {
  using namespace sizes;
  const std::vector<float> b = one_short(kB);
  expect_rejected([&](std::span<float> c) { gemm_a_bt(kM, kK, kN, kA, b, c); });
}

TEST(OpsSizes, GemmABtAccumulateRejectsShortA) {
  using namespace sizes;
  const std::vector<float> a = one_short(kA);
  expect_rejected([&](std::span<float> c) { gemm_a_bt_accumulate(kM, kK, kN, a, kB, c); });
}

TEST(OpsSizes, GemmABtBiasColsRejectsShortBias) {
  using namespace sizes;
  const std::vector<float> bias = one_short(kBiasN);
  expect_rejected(
      [&](std::span<float> c) { gemm_a_bt_bias_cols(kM, kK, kN, kA, kB, bias, c); });
}

TEST(OpsSizes, AddInplaceRejectsShortX) {
  using namespace sizes;
  const std::vector<float> x = one_short(kBiasN);
  expect_rejected([&](std::span<float> y) { add_inplace(y, x); }, kN);
}

TEST(OpsSizes, SubInplaceRejectsShortX) {
  using namespace sizes;
  const std::vector<float> x = one_short(kBiasN);
  expect_rejected([&](std::span<float> y) { sub_inplace(y, x); }, kN);
}

TEST(OpsSizes, AxpyRejectsShortX) {
  using namespace sizes;
  const std::vector<float> x = one_short(kBiasN);
  expect_rejected([&](std::span<float> y) { axpy(2.0F, x, y); }, kN);
}

TEST(OpsSizes, DotRejectsShortB) {
  using namespace sizes;
  const std::vector<float> b = one_short(kBiasN);
  expect_rejected([&](std::span<float> a) { (void)dot(a, b); }, kN);
}

TEST(Ops, TensorAdd) {
  const Tensor a(Shape{2}, {1, 2});
  const Tensor b(Shape{2}, {10, 20});
  const Tensor c = add(a, b);
  EXPECT_EQ(c[0], 11.0F);
  EXPECT_EQ(c[1], 22.0F);
}

TEST(Ops, TensorSub) {
  const Tensor a(Shape{2}, {10, 20});
  const Tensor b(Shape{2}, {1, 2});
  const Tensor c = sub(a, b);
  EXPECT_EQ(c[0], 9.0F);
  EXPECT_EQ(c[1], 18.0F);
}

TEST(Ops, TensorScale) {
  const Tensor a(Shape{2}, {1, -2});
  const Tensor c = scale(a, 3.0F);
  EXPECT_EQ(c[0], 3.0F);
  EXPECT_EQ(c[1], -6.0F);
}

TEST(Ops, TensorAddShapeMismatchThrows) {
  const Tensor a(Shape{2});
  const Tensor b(Shape{3});
  EXPECT_THROW(add(a, b), std::invalid_argument);
  EXPECT_THROW(sub(a, b), std::invalid_argument);
}

}  // namespace
}  // namespace helcfl::tensor

#include "tensor/ops.h"

#include <atomic>
#include <cassert>
#include <cstdlib>
#include <stdexcept>

#include "tensor/gemm_kernel.h"

namespace helcfl::tensor {

void add_inplace(std::span<float> y, std::span<const float> x) {
  assert(y.size() == x.size());
  for (std::size_t i = 0; i < y.size(); ++i) y[i] += x[i];
}

void sub_inplace(std::span<float> y, std::span<const float> x) {
  assert(y.size() == x.size());
  for (std::size_t i = 0; i < y.size(); ++i) y[i] -= x[i];
}

void scale_inplace(std::span<float> y, float s) {
  for (auto& v : y) v *= s;
}

void axpy(float a, std::span<const float> x, std::span<float> y) {
  assert(y.size() == x.size());
  for (std::size_t i = 0; i < y.size(); ++i) y[i] += a * x[i];
}

double dot(std::span<const float> a, std::span<const float> b) {
  assert(a.size() == b.size());
  double sum = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) sum += static_cast<double>(a[i]) * b[i];
  return sum;
}

double squared_norm(std::span<const float> a) { return dot(a, a); }

// Every GEMM variant below fills one detail::GemmArgs descriptor and hands
// it to detail::run_gemm, which shards output rows across the kernel pool
// when profitable and jumps through the kernel resolved at startup
// (generic, AVX2+FMA, or AVX-512); the packing routines absorb the
// transposes, so all variants share one micro-kernel and one accumulation
// order (see ops.h header comment).

void gemm(std::size_t m, std::size_t k, std::size_t n, std::span<const float> a,
          std::span<const float> b, std::span<float> c) {
  assert(a.size() == m * k && b.size() == k * n && c.size() == m * n);
  detail::GemmArgs args{.m = m, .k = k, .n = n, .a = a.data(), .b = b.data(),
                        .c = c.data()};
  detail::run_gemm(args);
}

void gemm_accumulate(std::size_t m, std::size_t k, std::size_t n,
                     std::span<const float> a, std::span<const float> b,
                     std::span<float> c) {
  assert(a.size() == m * k && b.size() == k * n && c.size() == m * n);
  detail::GemmArgs args{.m = m, .k = k, .n = n, .a = a.data(), .b = b.data(),
                        .c = c.data(), .accumulate = true};
  detail::run_gemm(args);
}

void gemm_bias_rows(std::size_t m, std::size_t k, std::size_t n,
                    std::span<const float> a, std::span<const float> b,
                    std::span<const float> bias, std::span<float> c) {
  assert(a.size() == m * k && b.size() == k * n && c.size() == m * n &&
         bias.size() == m);
  detail::GemmArgs args{.m = m, .k = k, .n = n, .a = a.data(), .b = b.data(),
                        .c = c.data(), .bias = bias.data()};
  detail::run_gemm(args);
}

void gemm_at_b(std::size_t m, std::size_t k, std::size_t n, std::span<const float> a,
               std::span<const float> b, std::span<float> c) {
  assert(a.size() == k * m && b.size() == k * n && c.size() == m * n);
  detail::GemmArgs args{.m = m, .k = k, .n = n, .a = a.data(), .b = b.data(),
                        .c = c.data(), .trans_a = true};
  detail::run_gemm(args);
}

void gemm_at_b_accumulate(std::size_t m, std::size_t k, std::size_t n,
                          std::span<const float> a, std::span<const float> b,
                          std::span<float> c) {
  assert(a.size() == k * m && b.size() == k * n && c.size() == m * n);
  detail::GemmArgs args{.m = m, .k = k, .n = n, .a = a.data(), .b = b.data(),
                        .c = c.data(), .trans_a = true, .accumulate = true};
  detail::run_gemm(args);
}

void gemm_a_bt(std::size_t m, std::size_t k, std::size_t n, std::span<const float> a,
               std::span<const float> b, std::span<float> c) {
  assert(a.size() == m * k && b.size() == n * k && c.size() == m * n);
  detail::GemmArgs args{.m = m, .k = k, .n = n, .a = a.data(), .b = b.data(),
                        .c = c.data(), .trans_b = true};
  detail::run_gemm(args);
}

void gemm_a_bt_accumulate(std::size_t m, std::size_t k, std::size_t n,
                          std::span<const float> a, std::span<const float> b,
                          std::span<float> c) {
  assert(a.size() == m * k && b.size() == n * k && c.size() == m * n);
  detail::GemmArgs args{.m = m, .k = k, .n = n, .a = a.data(), .b = b.data(),
                        .c = c.data(), .trans_b = true, .accumulate = true};
  detail::run_gemm(args);
}

void gemm_a_bt_bias_cols(std::size_t m, std::size_t k, std::size_t n,
                         std::span<const float> a, std::span<const float> b,
                         std::span<const float> bias, std::span<float> c) {
  assert(a.size() == m * k && b.size() == n * k && c.size() == m * n &&
         bias.size() == n);
  detail::GemmArgs args{.m = m, .k = k, .n = n, .a = a.data(), .b = b.data(),
                        .c = c.data(), .bias = bias.data(),
                        .bias_per_col = true, .trans_b = true};
  detail::run_gemm(args);
}

void PackedWeights::pack_a(std::size_t m, std::size_t k,
                           std::span<const float> w) {
  assert(w.size() == m * k);
  const detail::KernelVTable& vt = detail::active_kernel_vtable();
  detail::ensure_scratch(buf_, detail::packed_a_size(vt, m, k));
  detail::GemmArgs args{.m = m, .k = k, .a = w.data()};
  vt.pack_a(args, buf_.data());
  m_ = m;
  k_ = k;
  n_ = 0;
  side_ = 'a';
  valid_ = true;
}

void PackedWeights::pack_b_trans(std::size_t k, std::size_t n,
                                 std::span<const float> w) {
  assert(w.size() == n * k);
  const detail::KernelVTable& vt = detail::active_kernel_vtable();
  detail::ensure_scratch(buf_, detail::packed_b_size(vt, k, n));
  detail::GemmArgs args{.k = k, .n = n, .b = w.data(), .trans_b = true};
  vt.pack_b(args, buf_.data());
  m_ = 0;
  k_ = k;
  n_ = n;
  side_ = 'b';
  valid_ = true;
}

void gemm_bias_rows(std::size_t m, std::size_t k, std::size_t n,
                    const PackedWeights& a, std::span<const float> b,
                    std::span<const float> bias, std::span<float> c) {
  assert(a.is_a(m, k) && b.size() == k * n && c.size() == m * n &&
         bias.size() == m);
  detail::GemmArgs args{.m = m, .k = k, .n = n, .b = b.data(), .c = c.data(),
                        .bias = bias.data(), .packed_a = a.panels()};
  detail::run_gemm(args);
}

void gemm_a_bt_bias_cols(std::size_t m, std::size_t k, std::size_t n,
                         std::span<const float> a, const PackedWeights& b,
                         std::span<const float> bias, std::span<float> c) {
  assert(b.is_b_trans(k, n) && a.size() == m * k && c.size() == m * n &&
         bias.size() == n);
  detail::GemmArgs args{.m = m, .k = k, .n = n, .a = a.data(), .c = c.data(),
                        .bias = bias.data(), .bias_per_col = true,
                        .packed_b = b.panels()};
  detail::run_gemm(args);
}

namespace {
std::atomic<bool> g_weight_prepack{[] {
  const char* env = std::getenv("HELCFL_PREPACK");
  return !(env != nullptr && env[0] == '0');
}()};
}  // namespace

void set_weight_prepack(bool enabled) {
  g_weight_prepack.store(enabled, std::memory_order_relaxed);
}

bool weight_prepack_enabled() {
  return g_weight_prepack.load(std::memory_order_relaxed);
}

void set_kernel_threads(std::size_t n) { detail::set_kernel_threads(n); }

std::size_t kernel_threads() { return detail::kernel_threads(); }

std::string_view kernel_isa() { return detail::kernel_isa(); }

std::uint64_t scratch_realloc_count() { return detail::scratch_reallocs(); }

Tensor add(const Tensor& a, const Tensor& b) {
  require_same_shape(a.shape(), b.shape(), "tensor::add");
  Tensor out = a;
  add_inplace(out.data(), b.data());
  return out;
}

Tensor sub(const Tensor& a, const Tensor& b) {
  require_same_shape(a.shape(), b.shape(), "tensor::sub");
  Tensor out = a;
  sub_inplace(out.data(), b.data());
  return out;
}

Tensor scale(const Tensor& a, float s) {
  Tensor out = a;
  scale_inplace(out.data(), s);
  return out;
}

}  // namespace helcfl::tensor

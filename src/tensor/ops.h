// Math kernels on raw float spans and on Tensors.
//
// Layers in src/nn call these instead of hand-rolling loops so the hot
// paths live in one place (and are covered by the micro-benchmarks).
// Every span entry point checks its sizes in every build and throws
// std::invalid_argument before writing anything.
//
// All GEMM variants run on the register-blocked, cache-tiled driver in
// tensor/gemm_kernel.inl (docs/KERNELS.md).  Accumulation policy: every
// variant accumulates in float, in a fixed ascending-k order (k-blocks of
// 256 folded into C in ascending order), independent of thread count,
// tracing, and call history — so results are bitwise deterministic for a
// given machine.  Expected rounding error against an exact product is
// O(k) ulp; the layer gradchecks budget for it with tolerances >= 1e-2.
// The non-GEMM reductions (dot, squared_norm) accumulate in double, as
// does softmax_cross_entropy's log-sum-exp: they feed metrics and loss
// values where drift across long sums would be visible.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>

#include "tensor/tensor.h"

namespace helcfl::tensor {

/// y[i] += x[i].  Spans must be the same length.
void add_inplace(std::span<float> y, std::span<const float> x);

/// y[i] -= x[i].
void sub_inplace(std::span<float> y, std::span<const float> x);

/// y[i] *= s.
void scale_inplace(std::span<float> y, float s);

/// y[i] += a * x[i].
void axpy(float a, std::span<const float> x, std::span<float> y);

/// Inner product.
double dot(std::span<const float> a, std::span<const float> b);

/// Squared L2 norm.
double squared_norm(std::span<const float> a);

/// C[M,N] = A[M,K] * B[K,N].  C is overwritten.
void gemm(std::size_t m, std::size_t k, std::size_t n, std::span<const float> a,
          std::span<const float> b, std::span<float> c);

/// C[M,N] += A[M,K] * B[K,N].
void gemm_accumulate(std::size_t m, std::size_t k, std::size_t n,
                     std::span<const float> a, std::span<const float> b,
                     std::span<float> c);

/// C[M,N] = A[M,K] * B[K,N] + bias[i] broadcast across row i.  The bias
/// lands in the kernel's store pass (no second sweep over C), as in
/// Conv2D's forward with bias = per-output-channel.
void gemm_bias_rows(std::size_t m, std::size_t k, std::size_t n,
                    std::span<const float> a, std::span<const float> b,
                    std::span<const float> bias, std::span<float> c);

/// C[M,N] = A^T[M,K] * B[K,N] where A is stored as [K,M].
void gemm_at_b(std::size_t m, std::size_t k, std::size_t n, std::span<const float> a,
               std::span<const float> b, std::span<float> c);

/// C[M,N] += A^T[M,K] * B[K,N] where A is stored as [K,M] (Dense
/// grad_weight accumulation).
void gemm_at_b_accumulate(std::size_t m, std::size_t k, std::size_t n,
                          std::span<const float> a, std::span<const float> b,
                          std::span<float> c);

/// C[M,N] = A[M,K] * B^T[K,N] where B is stored as [N,K].
void gemm_a_bt(std::size_t m, std::size_t k, std::size_t n, std::span<const float> a,
               std::span<const float> b, std::span<float> c);

/// C[M,N] += A[M,K] * B^T[K,N] where B is stored as [N,K] (a conv
/// grad_weight step on an explicit im2col panel).
void gemm_a_bt_accumulate(std::size_t m, std::size_t k, std::size_t n,
                          std::span<const float> a, std::span<const float> b,
                          std::span<float> c);

/// C[M,N] = A[M,K] * B^T[K,N] + bias[j] broadcast down column j, with B
/// stored as [N,K].  Dense forward: y = x W^T + b fused in one pass.
void gemm_a_bt_bias_cols(std::size_t m, std::size_t k, std::size_t n,
                         std::span<const float> a, std::span<const float> b,
                         std::span<const float> bias, std::span<float> c);

/// Every product runs on its calling thread (docs/KERNELS.md), so the only
/// kernel thread count is 1: accepts n == 1 and throws
/// std::invalid_argument for any other value.  Kept only because the
/// frozen perfbench driver calls it; slated for deletion.
void set_kernel_threads(std::size_t n);

/// Name of the GEMM kernel this process resolved to ("avx512", "avx2_fma"
/// or "generic").  Set HELCFL_KERNEL_ISA=generic to pin the portable kernel
/// when bitwise reproducibility across machines matters more than speed;
/// pins above the CPU's capability degrade to the best supported kernel.
std::string_view kernel_isa();

/// Process-wide count of kernel/layer scratch-buffer growths.  Constant in
/// steady state (shapes no larger than already seen); the micro benches
/// and tests assert no growth in their hot loops.
std::uint64_t scratch_realloc_count();

/// Elementwise tensor sum; shapes must match.
Tensor add(const Tensor& a, const Tensor& b);

/// Elementwise tensor difference; shapes must match.
Tensor sub(const Tensor& a, const Tensor& b);

/// Scalar multiple.
Tensor scale(const Tensor& a, float s);

}  // namespace helcfl::tensor

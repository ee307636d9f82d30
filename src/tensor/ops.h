// Math kernels on raw float spans and on Tensors.
//
// Layers in src/nn call these instead of hand-rolling loops so the hot
// paths live in one place (and are covered by the micro-benchmarks).
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
#include <vector>

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

/// A weight matrix pre-arranged into the active kernel's panel layout, for
/// operands reused across many products: the FedAvg global model is
/// forwarded by every selected client every round, so Dense/Conv2D pack
/// their weight panels once per mutation instead of once per GEMM call.
/// Packing is a pure data rearrangement — packed and unpacked products are
/// bitwise identical.
///
/// Lifecycle: starts invalid; a layer packs lazily on first forward and
/// calls invalidate() whenever its weights change (Layer::
/// mark_weights_dirty, hooked into zero_grad and load_parameters — see
/// nn/layer.h for the invalidation contract).  The buffer only ever grows
/// (scratch_realloc_count audits growth), so steady-state repacks are
/// allocation-free.  Each instance is single-owner state like any other
/// layer scratch: never share one across threads.
class PackedWeights {
 public:
  /// Packs W[m,k] as the left operand of gemm_bias_rows/gemm-style
  /// products (Conv2D forward: W * im2col view).
  void pack_a(std::size_t m, std::size_t k, std::span<const float> w);

  /// Packs W[n,k] as the transposed right operand of
  /// gemm_a_bt_bias_cols-style products (Dense forward: x * W^T).
  void pack_b_trans(std::size_t k, std::size_t n, std::span<const float> w);

  /// True when the panels match the last-packed weights; false after
  /// invalidate() or before any pack.
  bool valid() const { return valid_; }

  /// Marks the panels stale (weights changed); next forward repacks.
  void invalidate() { valid_ = false; }

  // Used by the packed GEMM entry points below.
  const float* panels() const { return buf_.data(); }
  bool is_a(std::size_t m, std::size_t k) const {
    return valid_ && side_ == 'a' && m_ == m && k_ == k;
  }
  bool is_b_trans(std::size_t k, std::size_t n) const {
    return valid_ && side_ == 'b' && k_ == k && n_ == n;
  }

 private:
  std::vector<float> buf_;
  std::size_t m_ = 0;
  std::size_t k_ = 0;
  std::size_t n_ = 0;
  char side_ = 0;  // 'a' or 'b'
  bool valid_ = false;
};

/// gemm_bias_rows with a prepacked A (weights.is_a(m, k) must hold).
void gemm_bias_rows(std::size_t m, std::size_t k, std::size_t n,
                    const PackedWeights& a, std::span<const float> b,
                    std::span<const float> bias, std::span<float> c);

/// gemm_a_bt_bias_cols with a prepacked B^T (weights.is_b_trans(k, n) must
/// hold).
void gemm_a_bt_bias_cols(std::size_t m, std::size_t k, std::size_t n,
                         std::span<const float> a, const PackedWeights& b,
                         std::span<const float> bias, std::span<float> c);

/// Process-wide switch for the layer-level weight-prepacking path (Dense /
/// Conv2D forwards).  Defaults to on; HELCFL_PREPACK=0 in the environment
/// starts it off.  Exists for A/B benchmarking and packed-vs-unpacked
/// differential tests — flip it only from a single thread between
/// computations.
void set_weight_prepack(bool enabled);
bool weight_prepack_enabled();

/// Sets the GEMM worker count: 1 (default) keeps every product on the
/// calling thread, 0 resolves to hardware_concurrency, n >= 2 shards large
/// products' output rows across a dedicated n-thread kernel pool.  Bitwise
/// deterministic for any value — sharding never changes an element's
/// ascending-k accumulation order.  First use reads HELCFL_KERNEL_THREADS
/// when never set programmatically.  Not thread-safe against in-flight
/// GEMMs; configure between computations.
void set_kernel_threads(std::size_t n);

/// Currently configured GEMM worker count (>= 1).
std::size_t kernel_threads();

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

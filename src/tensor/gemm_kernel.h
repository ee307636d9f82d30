// Internal GEMM kernel layer (`helcfl::tensor::detail`).
//
// The public entry points in tensor/ops.h all lower to one descriptor,
// `GemmArgs`, dispatched to a register-blocked, cache-tiled driver
// (gemm_kernel.inl).  The driver is compiled once per instruction set the
// build supports — a portable baseline TU and, on x86-64 with GCC/Clang,
// AVX2+FMA and AVX-512 TUs built with per-file -m flags — and the fastest
// kernel the running CPU supports is resolved exactly once per process, so
// every call in a run (and every worker thread) executes the same
// instruction sequence.  On top of the per-ISA drivers sit two orthogonal
// accelerations that both preserve the bitwise-determinism contract:
//
//   * run_gemm() partitions C's **rows** across a dedicated kernel thread
//     pool (set_kernel_threads / HELCFL_KERNEL_THREADS).  Every output
//     element still accumulates its full k extent in the documented
//     ascending-k order on exactly one thread, so the bits are identical
//     for any thread count — including 1 — on a given kernel.
//   * Callers may supply prepacked operand panels (packed_a / packed_b,
//     produced by the vtable pack functions) so a weight matrix reused
//     across many products — the FedAvg global model forwarded by every
//     selected client — is packed once instead of per call.  Packing is a
//     pure data rearrangement; the product bits do not change.
//
// docs/KERNELS.md documents the tiling scheme, the accumulation policy,
// the threading partition, the packed-panel layout, and the determinism
// contract.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

namespace helcfl::tensor::detail {

/// A B operand read in place from images: the column panel
/// [channels*kernel^2, cnt*h_out*w_out] that im2col would unroll from `cnt`
/// zero-bordered samples.  Panel element (r, c), r = (ic, ky, kx) and
/// c = (s, y, x), is image[s*sample_stride + ic*hp*wp + (y*stride + ky)*wp
/// + x*stride + kx].
struct Im2colView {
  const float* image = nullptr;  ///< first sample [channels, hp, wp]
  std::size_t channels = 0, kernel = 0, stride = 1;
  std::size_t hp = 0, wp = 0, h_out = 0, w_out = 0;  ///< padded in, out extents
  std::size_t sample_stride = 0;  ///< floats from one sample to the next
};

/// One C = op(A)·op(B) [+ C] [+ bias] problem over row-major storage.
struct GemmArgs {
  std::size_t m = 0;  ///< rows of op(A) and C
  std::size_t k = 0;  ///< inner (reduction) dimension
  std::size_t n = 0;  ///< columns of op(B) and C
  const float* a = nullptr;  ///< [m,k], or [k,m] when trans_a
  const float* b = nullptr;  ///< [k,n], or [n,k] when trans_b
  float* c = nullptr;        ///< [m,n]; must not alias a or b
  /// Optional fused bias: [m] broadcast across each row, or [n] broadcast
  /// down each column when bias_per_col.  Requires !accumulate.
  const float* bias = nullptr;
  bool bias_per_col = false;
  bool trans_a = false;
  bool trans_b = false;
  bool accumulate = false;  ///< C += product instead of C = product
  /// Prepacked operand panels in the active kernel's layout (produced by
  /// KernelVTable::pack_a / pack_b for the *full* matrix).  When set, the
  /// corresponding raw pointer and trans flag are ignored.  Panel layouts
  /// are kernel-specific — a pack made under one ISA must never be fed to
  /// another kernel (tensor::PackedWeights enforces this).
  const float* packed_a = nullptr;
  const float* packed_b = nullptr;
  /// Row range [row_begin, row_end) of C to compute; row_end == 0 means m.
  /// Used by run_gemm() to shard rows across threads.  With packed_a the
  /// range must start on a multiple of the kernel's mc block (run_gemm
  /// guarantees this by partitioning at mc granularity).
  std::size_t row_begin = 0;
  std::size_t row_end = 0;
  /// When set, B is this view's panel (op(B) its transpose when trans_b)
  /// and `b` is ignored: packing reads through the im2col index map.
  const Im2colView* b_view = nullptr;
  /// When nonzero, k-blocks restart at every multiple of k_segment (still
  /// at most kc long), so one accumulate call over k = cnt*k_segment folds
  /// C exactly as cnt per-segment calls would.  Prepacked panels must come
  /// from a pack with the same k_segment.
  std::size_t k_segment = 0;
};

using GemmFn = void (*)(const GemmArgs&);
/// Packs the full op(A) (resp. op(B)) of `args` into `dst`, whose capacity
/// must be packed_a_size(vt, m, k) (resp. packed_b_size(vt, k, n)) floats.
using PackFn = void (*)(const GemmArgs&, float*);

/// Everything the engine knows about one compiled kernel.  `mr/nr` are the
/// micro-tile dimensions (they fix the packed-panel layout), `mc/kc` the
/// cache-block sizes (mc is the row-partition granularity for threading).
struct KernelVTable {
  GemmFn gemm = nullptr;
  PackFn pack_a = nullptr;
  PackFn pack_b = nullptr;
  std::size_t mr = 0;
  std::size_t nr = 0;
  std::size_t mc = 0;
  std::size_t kc = 0;
  std::string_view isa;
};

/// Floats needed to hold a full prepacked op(A) of shape [m, k] (zero-padded
/// kMr-row panels) or op(B) of shape [k, n] (zero-padded kNr-column panels).
inline std::size_t packed_a_size(const KernelVTable& vt, std::size_t m,
                                 std::size_t k) {
  return ((m + vt.mr - 1) / vt.mr) * vt.mr * k;
}
inline std::size_t packed_b_size(const KernelVTable& vt, std::size_t k,
                                 std::size_t n) {
  return ((n + vt.nr - 1) / vt.nr) * vt.nr * k;
}

/// Portable driver: 4x8 micro-tiles, whatever SIMD the base -march allows.
void gemm_generic(const GemmArgs& args);
void gemm_generic_pack_a(const GemmArgs& args, float* dst);
void gemm_generic_pack_b(const GemmArgs& args, float* dst);
const KernelVTable& gemm_generic_vtable();

#if defined(HELCFL_HAVE_AVX2_KERNELS)
/// Same driver compiled with -mavx2 -mfma and 6x16 micro-tiles.
void gemm_avx2(const GemmArgs& args);
void gemm_avx2_pack_a(const GemmArgs& args, float* dst);
void gemm_avx2_pack_b(const GemmArgs& args, float* dst);
const KernelVTable& gemm_avx2_vtable();
#endif

#if defined(HELCFL_HAVE_AVX512_KERNELS)
/// Same driver compiled with -mavx512f and 12x32 micro-tiles.
void gemm_avx512(const GemmArgs& args);
void gemm_avx512_pack_a(const GemmArgs& args, float* dst);
void gemm_avx512_pack_b(const GemmArgs& args, float* dst);
const KernelVTable& gemm_avx512_vtable();
#endif

/// Every kernel this build compiled that the CPU can run, narrowest first
/// (generic, then avx2_fma, then avx512): the set active_kernel_vtable()
/// picks from before HELCFL_KERNEL_ISA caps it.  Tests walk it to check each
/// kernel's packing against a reference.
const std::vector<const KernelVTable*>& supported_kernel_vtables();

/// The kernel this process dispatches to.  Resolved once (thread-safe) from
/// CPUID; `HELCFL_KERNEL_ISA` in the environment *caps* the dispatch below
/// the CPUID ceiling (generic < avx2_fma < avx512), so pinning an ISA the
/// machine lacks degrades gracefully to the best supported one.
/// `HELCFL_KERNEL_ISA=generic` pins the portable kernel for cross-machine
/// bit-reproducibility.
const KernelVTable& active_kernel_vtable();

/// Runs one GEMM through the resolved kernel, sharding C's rows across the
/// kernel thread pool when (a) more than one kernel thread is configured,
/// (b) the problem is large enough to amortize the fork/join, and (c) the
/// calling thread is not itself a util::ThreadPool worker (nested
/// parallelism would deadlock a pool waiting on itself and oversubscribe
/// the machine; trainer workers each run whole GEMMs instead).  Bitwise
/// deterministic for any thread count: row sharding never changes any
/// element's ascending-k accumulation order.
void run_gemm(const GemmArgs& args);

/// Sets the kernel-pool width: 1 (default) disables threading, 0 resolves
/// to hardware_concurrency, n >= 2 spawns a dedicated n-thread pool.  Not
/// thread-safe against in-flight GEMMs — configure from the main thread
/// between computations.  First use reads HELCFL_KERNEL_THREADS from the
/// environment when the knob was never set programmatically.
void set_kernel_threads(std::size_t n);

/// Currently configured kernel-pool width (>= 1).
std::size_t kernel_threads();

/// Name of the resolved kernel: "avx512", "avx2_fma" or "generic".
std::string_view kernel_isa();

/// Process-wide count of scratch-buffer growths (GEMM packing panels and
/// layer scratch), aggregated across every thread — the panels are
/// thread_local but the counter is one process-global atomic, so pool
/// workers' growths are visible here too.  In steady state — repeated calls
/// with shapes no larger than already seen on each thread — this must not
/// advance; tests and the micro benches assert it, and the trainer exports
/// it per round as the `kernel.scratch_reallocs` obs counter.
std::uint64_t scratch_reallocs();

/// Records one scratch growth (used by ensure_scratch and the nn layers).
void note_scratch_realloc();

/// Grows `buf` to at least `need` floats, counting the reallocation.
/// Never shrinks, so steady-state calls are allocation-free.
inline void ensure_scratch(std::vector<float>& buf, std::size_t need) {
  if (buf.size() < need) {
    buf.resize(need);
    note_scratch_realloc();
  }
}

}  // namespace helcfl::tensor::detail
